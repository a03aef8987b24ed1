package perfect

// Resolver is the one place a workload source string becomes an App.
// Every layer that used to call ByName directly — scenario files, the
// job service, the CLIs — resolves through here, so all of them accept
// the same three source forms and emit the same errors:
//
//   - a registry name ("FLO52", "finegrain", ...),
//   - a gen: spec ("gen:seed=7,phases=4-6", see internal/perfect/gen),
//   - an inline workload document (any source containing a newline).
//
// The forms are syntactically disjoint: documents contain newlines,
// gen: specs carry the prefix, and registry names are bare words.
// Resolution order is therefore not load-bearing; it just picks the
// only form that can match. A *.workload file path is refused: sources
// travel (scenario documents, served jobs), so they carry the document
// itself, never a path to read.

import (
	"fmt"
	"strings"
)

// GenPrefix marks a generator-spec workload source.
const GenPrefix = "gen:"

// genHook materializes a generator spec. internal/perfect/gen installs
// it from init (the generator imports this package, so the dependency
// must point this way); callers that want gen: sources link the
// generator with a blank import.
var genHook func(spec string) (App, error)

// RegisterGen installs the gen: spec materializer.
func RegisterGen(fn func(spec string) (App, error)) { genHook = fn }

// Resolver resolves workload source strings.
type Resolver struct{}

// Resolve turns a workload source into a validated App.
func (Resolver) Resolve(src string) (App, error) {
	switch {
	case strings.Contains(src, "\n"):
		return ParseWorkload([]byte(src))
	case strings.HasPrefix(src, GenPrefix):
		if genHook == nil {
			return App{}, fmt.Errorf("perfect: gen: workloads not linked in (blank-import repro/internal/perfect/gen)")
		}
		return genHook(strings.TrimPrefix(src, GenPrefix))
	case strings.HasSuffix(src, WorkloadExt):
		return App{}, fmt.Errorf("perfect: workload file %q not allowed here (inline the document instead)", src)
	default:
		a, ok := ByName(src)
		if !ok {
			return App{}, UnknownAppError(src)
		}
		return a, nil
	}
}

// UnknownAppError is the one error every layer reports for a name that
// is not in the registry.
func UnknownAppError(name string) error {
	return fmt.Errorf("unknown app %q (known: %s)", name, strings.Join(KnownApps(), ", "))
}
