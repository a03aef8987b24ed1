package cedar

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/perfect"
	"repro/internal/sim"
)

// mustRun is SimulateRunErr, failing the test or benchmark on error.
func mustRun(tb testing.TB, app perfect.App, cfg arch.Config, opts Options) *Run {
	tb.Helper()
	run, err := SimulateRunErr(app, cfg, opts)
	if err != nil {
		tb.Fatal(err)
	}
	return run
}

// A canceled context stops a running simulation promptly with an error
// matching both the sim and context sentinels, and a context canceled
// before the run refuses to start at all.
func TestSimulateRunCtxCancel(t *testing.T) {
	pre, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := SimulateRunCtx(pre, perfect.FLO52(), arch.Cedar8, Options{Steps: 1}); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled ctx: err = %v, want context.Canceled", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	// ~3 s of work uncanceled; the cancel must cut it short.
	run, err := SimulateRunCtx(ctx, perfect.ADM(), arch.Cedar32, Options{Steps: 500})
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("canceled run returned nil error")
	}
	if !errors.Is(err, sim.ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want sim.ErrCanceled and context.Canceled", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("canceled run took %v to return", elapsed)
	}
	// The partial run is still inspectable, like other abnormal ends.
	if run == nil || run.Result == nil {
		t.Fatal("canceled run did not return partial accounting")
	}
}

// A deadline context behaves the same way, matching DeadlineExceeded.
func TestSimulateRunCtxDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	_, err := SimulateRunCtx(ctx, perfect.ADM(), arch.Cedar32, Options{Steps: 500})
	if !errors.Is(err, sim.ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want sim.ErrCanceled and context.DeadlineExceeded", err)
	}
}

// A cancelable context that never fires cannot perturb results: the
// run with the kernel interrupt armed is byte-identical to the plain
// path, per configuration.
func TestSimulateRunCtxIdentical(t *testing.T) {
	app := perfect.FLO52()
	opts := Options{Steps: 2}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, cfg := range []arch.Config{arch.Cedar1, arch.Cedar4, arch.Cedar8} {
		plain := mustRun(t, app, cfg, opts)
		viaCtx, err := SimulateRunCtx(ctx, app, cfg, opts)
		if err != nil {
			t.Fatalf("%s: SimulateRunCtx: %v", cfg.Name, err)
		}
		if a, b := plain.StatfxText(), viaCtx.StatfxText(); a != b {
			t.Fatalf("%s: ctx path diverged:\n%s\nvs\n%s", cfg.Name, a, b)
		}
	}
}
