package main

import (
	"fmt"

	cedar "repro"
	"repro/internal/core"
	"repro/internal/metrics"
)

// work is the simulated work one op set did, as exact counts. A change
// that only speeds the simulator up must leave every field unchanged.
type work struct {
	Events          uint64 // kernel events dispatched
	NetReservations uint64 // network port reservations, both directions
	NetDelay        uint64 // cycles queued at network ports
	GMAccesses      uint64
	GMWords         uint64
	GMModuleDelay   uint64 // cycles queued at memory modules
	CfrtPicks       uint64 // loop iteration pickups, outer and XDOALL
	CfrtBarriers    uint64
	XylemFaults     uint64 // page faults, sequential and concurrent
	XylemCPIs       uint64 // cross-processor interrupts serviced
	// AccountViolations counts CEs that break accounting conservation:
	// a surviving CE whose account total is not the completion time, or
	// a failed CE whose total exceeds it.
	AccountViolations uint64
}

func (w *work) add(o work) {
	w.Events += o.Events
	w.NetReservations += o.NetReservations
	w.NetDelay += o.NetDelay
	w.GMAccesses += o.GMAccesses
	w.GMWords += o.GMWords
	w.GMModuleDelay += o.GMModuleDelay
	w.CfrtPicks += o.CfrtPicks
	w.CfrtBarriers += o.CfrtBarriers
	w.XylemFaults += o.XylemFaults
	w.XylemCPIs += o.XylemCPIs
	w.AccountViolations += o.AccountViolations
}

type field struct {
	name  string
	value float64
	unit  string
}

func (w work) fields() []field {
	return []field{
		{"sim.events", float64(w.Events), "events"},
		{"network.reservations", float64(w.NetReservations), "count"},
		{"network.delay_cycles", float64(w.NetDelay), "cycles"},
		{"gmem.accesses", float64(w.GMAccesses), "count"},
		{"gmem.words", float64(w.GMWords), "words"},
		{"gmem.module_delay_cycles", float64(w.GMModuleDelay), "cycles"},
		{"cfrt.picks", float64(w.CfrtPicks), "count"},
		{"cfrt.barriers", float64(w.CfrtBarriers), "count"},
		{"xylem.page_faults", float64(w.XylemFaults), "count"},
		{"xylem.cpis", float64(w.XylemCPIs), "count"},
		{"audit.account_violations", float64(w.AccountViolations), "count"},
	}
}

// resultWork reads the counts an analysis result carries; the kernel's
// event count and the network reservation count live only on the Run.
func resultWork(res *core.Result) work {
	return work{
		NetDelay:      uint64(res.GM.NetworkDelay),
		GMAccesses:    res.GM.Accesses,
		GMWords:       res.GM.Words,
		GMModuleDelay: uint64(res.GM.ModuleDelay),
		CfrtPicks:     res.RT.OuterPicks + res.RT.XdoallPicks,
		CfrtBarriers:  res.RT.Barriers,
		XylemFaults:   res.OS.Count[metrics.OSPgFltConc] + res.OS.Count[metrics.OSPgFltSeq],
		XylemCPIs:     res.OS.Count[metrics.OSCpi],

		AccountViolations: accountViolations(res),
	}
}

func runWork(run *cedar.Run) work {
	w := resultWork(run.Result)
	w.Events = run.Machine.Kernel.EventsFired()
	w.NetReservations = run.Machine.GM.Net().Stats().Reservations
	return w
}

// accountViolations checks the accounting conservation law: every CE
// that survived the run accounted for exactly the completion time, and
// a failed CE for no more than it. It returns how many CEs break it.
func accountViolations(res *core.Result) uint64 {
	var over, under uint64
	for _, a := range res.Accounts {
		switch t := a.Total(); {
		case t > res.CT:
			over++
		case t < res.CT:
			under++
		}
	}
	// Failed CEs may fall short of the completion time.
	if failed := uint64(res.FailedCEs); under > failed {
		over += under - failed
	}
	return over
}

// checkWork checks that ops with equal keys, across every window of a
// run (traced and untraced alike), did identical simulated work.
func checkWork(passes []pass) error {
	seen := map[string]work{}
	for _, p := range passes {
		for _, s := range p.samples {
			if s.err != nil || s.counts == nil {
				continue
			}
			if w, ok := seen[s.key]; ok && w != *s.counts {
				return fmt.Errorf("%w: op %s did different simulated work on a repeat: %+v then %+v",
					errWrongOutput, s.key, w, *s.counts)
			}
			seen[s.key] = *s.counts
		}
	}
	return nil
}
