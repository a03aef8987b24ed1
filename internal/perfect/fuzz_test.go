package perfect

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzParseWorkload checks the workload parser on arbitrary documents,
// seeded from the committed testdata/workloads/ goldens. A document
// must never panic the parser, and an accepted one must survive the
// canonical printer: ParseWorkload(PrintWorkload(a)) == a.
func FuzzParseWorkload(f *testing.F) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "workloads", "*"+WorkloadExt))
	if err != nil {
		f.Fatal(err)
	}
	if len(paths) == 0 {
		f.Fatal("no committed workloads to seed from")
	}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := ParseWorkload(data)
		if err != nil {
			return
		}
		printed := PrintWorkload(a)
		again, err := ParseWorkload(printed)
		if err != nil {
			t.Fatalf("printed document does not parse: %v\n%s", err, printed)
		}
		if !reflect.DeepEqual(again, a) {
			t.Fatalf("print/parse changed the app:\n got %+v\nwant %+v\n%s", again, a, printed)
		}
	})
}
