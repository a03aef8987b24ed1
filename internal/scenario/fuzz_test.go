package scenario

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// committedDocs returns every committed scenario document, the seed
// corpus of both fuzz targets.
func committedDocs(f *testing.F) [][]byte {
	var docs [][]byte
	for _, dir := range []string{"../../testdata/scenarios", "../../testdata/faultcorpus"} {
		paths, err := filepath.Glob(filepath.Join(dir, "*"+Ext))
		if err != nil {
			f.Fatal(err)
		}
		for _, path := range paths {
			data, err := os.ReadFile(path)
			if err != nil {
				f.Fatal(err)
			}
			docs = append(docs, data)
		}
	}
	if len(docs) == 0 {
		f.Fatal("no committed scenario documents to seed from")
	}
	return docs
}

// docKeys are the document keys an error may name.
var docKeys = []string{"name", "app", "workload", "pathology", "config", "steps", "scale",
	"seed", "plan", "parallel", "max_cycles", "expect", "wall_tol", "metrics"}

// namesKeyOrLine reports whether a rejection points at where the input
// went wrong: a line (number or the line form itself) or a key.
func namesKeyOrLine(err error) bool {
	msg := err.Error()
	if strings.Contains(msg, "line") {
		return true
	}
	for _, k := range docKeys {
		if strings.Contains(msg, k) {
			return true
		}
	}
	return false
}

// FuzzParse: Parse never panics; an accepted document prints to a
// document that parses back and prints identically, and a scenario
// with a one-line form round-trips through it too; a rejected one is
// told which line or key is wrong.
func FuzzParse(f *testing.F) {
	for _, doc := range committedDocs(f) {
		f.Add(doc)
	}
	f.Add([]byte("name: g\napp: gen:seed=3,phases=2-4,gm=0.2,pages=8-64\nconfig: scaled64\nexpect: error\n" +
		"max_cycles: 9\nwall_tol: 0.25\nmetrics:\n  - events\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		sc, err := Parse("fuzz", data)
		if err != nil {
			if !namesKeyOrLine(err) {
				t.Fatalf("error names no line or key: %v", err)
			}
			return
		}
		doc := sc.Document("")
		again, err := Parse("fuzz", doc)
		if err != nil {
			t.Fatalf("printed document does not parse: %v\n%s", err, doc)
		}
		if got := again.Document(""); !bytes.Equal(got, doc) {
			t.Fatalf("print is not a fixpoint:\n--- first ---\n%s--- second ---\n%s", doc, got)
		}
		if line, err := sc.Line(); err == nil {
			fromLine, err := ParseLine(line)
			if err != nil {
				t.Fatalf("line %q does not parse: %v", line, err)
			}
			if got, _ := fromLine.Line(); got != line {
				t.Fatalf("line is not a fixpoint:\n%s\n%s", line, got)
			}
		}
	})
}

// FuzzParseLine: ParseLine never panics; an accepted line renders to a
// line that parses back and renders identically; a rejected one is
// told which field or line is wrong.
func FuzzParseLine(f *testing.F) {
	for _, doc := range committedDocs(f) {
		if sc, err := Parse("seed", doc); err == nil {
			if line, err := sc.Line(); err == nil {
				f.Add(line)
			}
		}
	}
	f.Add("app=gen:seed=14,hot=1 config=scaled64 steps=1 seed=-7 plan=ce:1@500,lock:-1@1e4+50 scale=3 max_cycles=9 expect=error")
	f.Fuzz(func(t *testing.T, line string) {
		sc, err := ParseLine(line)
		if err != nil {
			if !namesKeyOrLine(err) {
				t.Fatalf("error names no line or key: %v", err)
			}
			return
		}
		out, err := sc.Line()
		if err != nil {
			t.Fatalf("accepted line has no line form: %v", err)
		}
		again, err := ParseLine(out)
		if err != nil {
			t.Fatalf("rendered line %q does not parse: %v", out, err)
		}
		if got, _ := again.Line(); got != out {
			t.Fatalf("line is not a fixpoint:\n%s\n%s", out, got)
		}
	})
}
