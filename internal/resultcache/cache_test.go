package resultcache

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func testKey(seed int64) Key {
	return Key{Kind: "simulate", App: "FLO52", Config: "8proc",
		Steps: 2, Seed: seed, Plan: "ce:1@76414", Version: "test-v1"}
}

func TestPutGetRoundTrip(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := testKey(1)
	payload := []byte("app=FLO52 config=8proc ct=123\nce0 user=10\n")
	if _, ok := c.Get(key); ok {
		t.Fatal("hit on an empty cache")
	}
	if err := c.Put(key, payload); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Get(key)
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("Get = %q, %v; want the stored payload", got, ok)
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.Writes != 1 || s.Corrupt != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestKeyFieldsAllParticipate(t *testing.T) {
	base := testKey(1)
	variants := []Key{
		{Kind: "sweep", App: base.App, Config: base.Config, Steps: base.Steps, Seed: base.Seed, Plan: base.Plan, Version: base.Version},
		func() Key { k := base; k.App = "ADM"; return k }(),
		func() Key { k := base; k.Config = "32proc"; return k }(),
		func() Key { k := base; k.Steps = 3; return k }(),
		func() Key { k := base; k.Seed = 2; return k }(),
		func() Key { k := base; k.Plan = ""; return k }(),
		func() Key { k := base; k.Version = "test-v2"; return k }(),
		func() Key { k := base; k.MaxCycles = 7; return k }(),
		func() Key { k := base; k.Workload = "workload: w\nsteps: 2\n"; return k }(),
	}
	seen := map[string]bool{base.ID(): true}
	for i, v := range variants {
		if seen[v.ID()] {
			t.Fatalf("variant %d (%s) collides with a previous key", i, v.Canonical())
		}
		seen[v.ID()] = true
	}
	// Post-v1 fields enter the canonical form only when set, so keys
	// minted before they existed keep their addresses.
	if strings.Contains(base.Canonical(), "maxcycles") {
		t.Fatalf("zero MaxCycles altered the v1 canonical form: %s", base.Canonical())
	}
	if strings.Contains(base.Canonical(), "workload") {
		t.Fatalf("empty Workload altered the v1 canonical form: %s", base.Canonical())
	}
}

// A workload document's newlines are escaped into the canonical form,
// and any single-character edit to the document is a different key.
func TestKeyWorkloadIdentity(t *testing.T) {
	a := testKey(1)
	a.Workload = "workload: w\nsteps: 2\n"
	b := a
	b.Workload = "workload: w\nsteps: 3\n"
	if a.ID() == b.ID() {
		t.Fatal("edited workload document shares a cache key")
	}
	if c := a.Canonical(); !strings.Contains(c, `workload=workload: w\nsteps: 2\n`) {
		t.Fatalf("canonical form not newline-escaped: %q", c)
	}
}

// entryFile finds the single .entry file the tests wrote.
func entryFile(t *testing.T, dir string) string {
	t.Helper()
	ents, err := filepath.Glob(filepath.Join(dir, "*.entry"))
	if err != nil || len(ents) != 1 {
		t.Fatalf("want exactly one entry, got %v (%v)", ents, err)
	}
	return ents[0]
}

// The integrity gate: a truncated entry is detected, reported as a
// miss, removed, and recomputed via the next Put — never served.
func TestTruncatedEntryIsMiss(t *testing.T) {
	dir := t.TempDir()
	c, _ := Open(dir)
	key := testKey(2)
	payload := []byte("a long enough payload to truncate meaningfully")
	if err := c.Put(key, payload); err != nil {
		t.Fatal(err)
	}
	path := entryFile(t, dir)
	data, _ := os.ReadFile(path)
	for _, cut := range []int{len(data) - 1, len(data) / 2, 10, 0} {
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if got, ok := c.Get(key); ok {
			t.Fatalf("truncated-to-%d entry served as a hit: %q", cut, got)
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Fatalf("truncated-to-%d entry not removed after detection", cut)
		}
		// Recompute path: the slot heals.
		if err := c.Put(key, payload); err != nil {
			t.Fatal(err)
		}
		if got, ok := c.Get(key); !ok || !bytes.Equal(got, payload) {
			t.Fatalf("recomputed entry not served after truncation-to-%d", cut)
		}
	}
	if s := c.Stats(); s.Corrupt != 4 {
		t.Fatalf("corrupt count = %d, want 4 (stats %+v)", s.Corrupt, s)
	}
}

// Bit flips anywhere in the entry — header, key line, payload — are
// detected and treated as misses.
func TestBitFlippedEntryIsMiss(t *testing.T) {
	dir := t.TempDir()
	c, _ := Open(dir)
	key := testKey(3)
	payload := []byte("deterministic result bytes, checksummed")
	if err := c.Put(key, payload); err != nil {
		t.Fatal(err)
	}
	pristine, _ := os.ReadFile(entryFile(t, dir))
	for _, pos := range []int{0, 20, len(pristine) - len(payload) + 3, len(pristine) - 1} {
		flipped := append([]byte(nil), pristine...)
		flipped[pos] ^= 0x40
		if err := os.WriteFile(entryFile0(dir, key), flipped, 0o644); err != nil {
			t.Fatal(err)
		}
		if got, ok := c.Get(key); ok {
			t.Fatalf("bit-flip at %d served as a hit: %q", pos, got)
		}
		if err := c.Put(key, payload); err != nil {
			t.Fatal(err)
		}
	}
	if s := c.Stats(); s.Corrupt != 4 {
		t.Fatalf("corrupt count = %d, want 4 (stats %+v)", s.Corrupt, s)
	}
}

// entryFile0 rebuilds the entry path for a key (the file may have been
// removed by a corrupt-detection pass).
func entryFile0(dir string, key Key) string {
	return filepath.Join(dir, key.ID()+".entry")
}

// An entry stored under a different key's file name (tampered cache)
// is rejected by the recorded-key check.
func TestKeyMismatchIsMiss(t *testing.T) {
	dir := t.TempDir()
	c, _ := Open(dir)
	a, b := testKey(4), testKey(5)
	if err := c.Put(a, []byte("a's result")); err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(entryFile0(dir, a))
	if err := os.WriteFile(entryFile0(dir, b), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if got, ok := c.Get(b); ok {
		t.Fatalf("entry recorded for key a served for key b: %q", got)
	}
}

// A crash mid-write (the tmp file survives, the rename never happened)
// leaves no visible entry, and Open sweeps the litter.
func TestCrashMidWriteLeavesNoEntry(t *testing.T) {
	dir := t.TempDir()
	c, _ := Open(dir)
	key := testKey(6)
	tmp := filepath.Join(dir, key.ID()+".tmp-crashed")
	if err := os.WriteFile(tmp, []byte("half an ent"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(key); ok {
		t.Fatal("tmp litter served as a hit")
	}
	c2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, statErr := os.Stat(tmp); !os.IsNotExist(statErr) {
		t.Fatal("Open did not sweep crashed tmp file")
	}
	_ = c2
}

func TestConcurrentPutGet(t *testing.T) {
	c, _ := Open(t.TempDir())
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				key := testKey(int64(i % 5))
				want := []byte(fmt.Sprintf("result for seed %d", i%5))
				c.Put(key, want)
				if got, ok := c.Get(key); ok && !bytes.Equal(got, want) {
					t.Errorf("goroutine %d: wrong payload %q", g, got)
				}
			}
		}(g)
	}
	wg.Wait()
	if c.Len() != 5 {
		t.Fatalf("cache holds %d entries, want 5", c.Len())
	}
}

// TestLenCountsEntries pins Len's running count: a new key adds one,
// an overwrite adds nothing, a detected-and-removed corrupt entry
// subtracts one, and a reopen recounts the directory.
func TestLenCountsEntries(t *testing.T) {
	dir := t.TempDir()
	c, _ := Open(dir)
	want := func(n int, when string) {
		t.Helper()
		if got := c.Len(); got != n {
			t.Fatalf("%s: Len = %d, want %d", when, got, n)
		}
	}
	want(0, "empty")
	for i := int64(0); i < 3; i++ {
		if err := c.Put(testKey(i), []byte("v1")); err != nil {
			t.Fatal(err)
		}
	}
	want(3, "after three new puts")
	if err := c.Put(testKey(1), []byte("v2")); err != nil {
		t.Fatal(err)
	}
	want(3, "after an overwrite")
	if err := os.WriteFile(entryFile0(dir, testKey(2)), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(testKey(2)); ok {
		t.Fatal("corrupt entry served as a hit")
	}
	want(2, "after a corrupt removal")
	if _, ok := c.Get(testKey(2)); ok {
		t.Fatal("removed entry served as a hit")
	}
	want(2, "after a plain miss")
	// Another writer's entry appears only at the next Open.
	other, _ := Open(dir)
	if err := other.Put(testKey(7), []byte("v1")); err != nil {
		t.Fatal(err)
	}
	want(2, "before reopen")
	c, _ = Open(dir)
	want(3, "after reopen")
}

// TestMultiLinePlanRoundTrips is the regression test for multi-line
// Plan fields (corpus scenario lists, bench scenario documents): the
// raw document used to leak newlines into the entry's one-line key
// record, so every Get failed verification, removed the entry, and
// missed — the cache could never go warm for those kinds.
func TestMultiLinePlanRoundTrips(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := Key{Kind: "bench", App: "bench", Version: "test-v1",
		Plan: "name: tiny\napp: FLO52\nconfig: 1proc\nsteps: 1\n"}
	payload := []byte(`{"version": 1, "records": []}`)
	if err := c.Put(key, payload); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Get(key)
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("Get = %q, %v; want a hit with the stored payload", got, ok)
	}
	if s := c.Stats(); s.Corrupt != 0 {
		t.Fatalf("multi-line plan flagged corrupt: %+v", s)
	}
	if !strings.Contains(key.Canonical(), `plan=name: tiny\napp:`) {
		t.Fatalf("canonical form not newline-escaped: %q", key.Canonical())
	}
	// Escaping must not alias: a literal backslash-n differs from a
	// newline.
	other := key
	other.Plan = strings.ReplaceAll(key.Plan, "\n", `\n`)
	if other.ID() == key.ID() {
		t.Fatal("escaped and literal plans share an address")
	}
}
