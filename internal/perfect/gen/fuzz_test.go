package gen

import (
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"
)

// specRE finds gen: specs in the committed scenarios' text (the
// cedarfuzz promotion comments name the sample each one came from).
var specRE = regexp.MustCompile(`gen:[A-Za-z0-9=.,_-]+`)

// FuzzParseSpec checks the gen: spec parser on arbitrary specs, seeded
// from every gen: spec in testdata/scenarios/. A spec must never panic
// the parser, and an accepted one must render back to itself:
// ParseSpec(s.String()) == s.
func FuzzParseSpec(f *testing.F) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "..", "testdata", "scenarios", "*.scenario"))
	if err != nil {
		f.Fatal(err)
	}
	seeds := 0
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		for _, spec := range specRE.FindAllString(string(data), -1) {
			f.Add(spec)
			seeds++
		}
	}
	if seeds == 0 {
		f.Fatal("no committed gen: specs to seed from")
	}
	// Regression seed: a bound small enough to render in exponent form.
	f.Add("gen:seed=3,gm=0.00001,serial=0.000001-0.1")
	f.Fuzz(func(t *testing.T, in string) {
		s, err := ParseSpec(in)
		if err != nil {
			return
		}
		again, err := ParseSpec(s.String())
		if err != nil {
			t.Fatalf("%q: rendered %q does not parse: %v", in, s, err)
		}
		if !reflect.DeepEqual(again, s) {
			t.Fatalf("%q: %q re-parses to %+v, want %+v", in, s, again, s)
		}
	})
}
