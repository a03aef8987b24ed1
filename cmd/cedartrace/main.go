// Command cedartrace runs an application with the cedarhpm monitor
// armed and prints the event trace (or a per-event summary), the way
// the paper's trace buffers were offloaded to a workstation for
// analysis.
//
// Usage:
//
//	cedartrace [-app FLO52] [-ces 16] [-config 64proc] [-list-configs]
//	           [-steps 1] [-max 200] [-summary [-json]] [-hw] [-obs]
//
// -ces selects among the paper's closed configuration list; -config
// selects any named family member, including the scaled machines
// (-list-configs prints them all).
//
// -summary prints per-event counts and pair durations; with -json the
// same summary is emitted as a JSON object for scripting. -hw prints
// hardware counters. -obs arms the observability recorder and prints a
// span/series digest: spans per category, the slowest spans, and the
// sampled time series with mean and final values.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	cedar "repro"
	"repro/internal/arch"
	"repro/internal/hpm"
	"repro/internal/obs"
	"repro/internal/perfect"
)

// supportedCEs lists the CE counts of the paper configurations, for
// error messages.
func supportedCEs() string {
	var counts []int
	for _, c := range arch.PaperConfigs() {
		counts = append(counts, c.CEs())
	}
	sort.Ints(counts)
	parts := make([]string, len(counts))
	for i, n := range counts {
		parts[i] = fmt.Sprint(n)
	}
	return strings.Join(parts, ", ")
}

func main() {
	appName := flag.String("app", "FLO52", "application name")
	ces := flag.Int("ces", 16, "processor count: 1, 4, 8, 16, or 32")
	configName := flag.String("config", "", "named machine family member (see -list-configs)")
	listConfigs := flag.Bool("list-configs", false, "print all named machine configurations and exit")
	steps := flag.Int("steps", 1, "timesteps to run (trace volume grows fast)")
	max := flag.Int("max", 200, "maximum trace records to print")
	summary := flag.Bool("summary", false, "print per-event counts and pair durations only")
	jsonOut := flag.Bool("json", false, "with -summary: emit the summary as JSON")
	hw := flag.Bool("hw", false, "print hardware counters (module utilization, hot ports, cache)")
	obsMode := flag.Bool("obs", false, "arm the obs recorder and print a span/series digest")
	flag.Parse()

	if *listConfigs {
		for _, c := range arch.Families() {
			fmt.Printf("%-10s %3d CEs  %2d clusters x %2d  GM %3d  %d-stage degree-%d\n",
				c.Name, c.CEs(), c.Clusters, c.CEsPerCluster,
				c.GMModules, c.NetStages, c.SwitchDegree)
		}
		return
	}
	if *jsonOut && !*summary {
		fmt.Fprintln(os.Stderr, "cedartrace: -json requires -summary")
		os.Exit(2)
	}

	app, ok := perfect.ByName(*appName)
	if !ok {
		fmt.Fprintf(os.Stderr, "cedartrace: unknown application %q\n", *appName)
		os.Exit(2)
	}
	// Exact-match the configuration: a -ces value that matches no paper
	// configuration must not fall through to the zero arch.Config
	// (an empty machine would "run" and report nonsense). -config opens
	// the full named family, scaled machines included.
	var cfg arch.Config
	found := false
	if *configName != "" {
		cfg, found = arch.FamilyByName(*configName)
		if !found {
			fmt.Fprintf(os.Stderr, "cedartrace: unknown configuration %q (use -list-configs)\n", *configName)
			os.Exit(2)
		}
	} else {
		for _, c := range arch.PaperConfigs() {
			if c.CEs() == *ces {
				cfg, found = c, true
				break
			}
		}
		if !found {
			fmt.Fprintf(os.Stderr, "cedartrace: no paper configuration with %d CEs (supported: %s; -config opens the scaled machines)\n",
				*ces, supportedCEs())
			os.Exit(2)
		}
	}

	opts := cedar.Options{
		Steps:         *steps,
		TraceCapacity: 1 << 22,
	}
	if *obsMode {
		opts.Observe = &obs.Options{}
	}
	run, err := cedar.SimulateRunErr(app, cfg, opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cedartrace: %v\n", err)
		os.Exit(1)
	}
	mon := run.Monitor

	if *summary && *jsonOut {
		printJSONSummary(run)
		return
	}

	fmt.Printf("%s on %s: %d cycles, %d trace records (%d dropped)\n\n",
		app.Name, cfg.Name, run.Result.CT, len(mon.Trace()), mon.Dropped())

	if *obsMode {
		printObsDigest(run)
		return
	}

	if *hw {
		ct := run.Result.CT
		gm := run.Result.GM
		fmt.Printf("global memory: %d accesses, %d words; request-to-completion total %d cycles\n",
			gm.Accesses, gm.Words, gm.StallTotal)
		fmt.Println("module utilization (busy fraction over the run):")
		util := run.Machine.GM.ModuleUtilization(ct)
		for i, u := range util {
			fmt.Printf(" m%02d %5.1f%%", i, u*100)
			if (i+1)%8 == 0 {
				fmt.Println()
			}
		}
		hotName, hotDelay := run.Machine.GM.Net().MaxPortDelay()
		st := run.Machine.GM.Net().Stats()
		fmt.Printf("network: %d port reservations, %d delayed; aggregate queueing %d cycles\n",
			st.Reservations, st.Delayed, st.DelayTotal)
		fmt.Printf("hottest port: %s with %d cycles of queueing\n", hotName, hotDelay)
		fmt.Println("\nper-cluster shared cache:")
		for _, cl := range run.Machine.Clusters {
			fmt.Printf("  cluster %d: util %.1f%%  hits %d  misses %d  queued %d cycles\n",
				cl.ID, cl.Cache.Utilization(ct)*100,
				cl.Cache.Hits(), cl.Cache.Misses(), cl.Cache.QueuedTotal())
		}
		fmt.Printf("\nOS: %d sequential faults, %d concurrent fault participations\n",
			run.OS.SeqFaults(), run.OS.ConcFaults())
		return
	}

	if *summary {
		fmt.Println("event counts:")
		for ev := hpm.EventID(0); ev < hpm.NumEvents; ev++ {
			if n := mon.Count(ev); n > 0 {
				fmt.Printf("  %-14s %10d\n", ev, n)
			}
		}
		fmt.Println("\nbarrier time per CE (barrier-enter .. barrier-exit):")
		for ce, d := range hpm.PairDurations(mon.Trace(), hpm.EvBarrierEnter, hpm.EvBarrierExit) {
			fmt.Printf("  ce%-3d %12d cycles\n", ce, d)
		}
		fmt.Println("\nhelper wait per CE (wait-start .. wait-end):")
		for ce, d := range hpm.PairDurations(mon.Trace(), hpm.EvWaitStart, hpm.EvWaitEnd) {
			fmt.Printf("  ce%-3d %12d cycles\n", ce, d)
		}
		return
	}

	for i, rec := range mon.Trace() {
		if i >= *max {
			fmt.Printf("... (%d more)\n", len(mon.Trace())-i)
			break
		}
		fmt.Printf("%12d  ce%-3d %-14s aux=%d\n", rec.At, rec.CE, rec.Event, rec.Aux)
	}
}

// jsonSummary is the -summary -json document: run identity, per-event
// counts, and the barrier/helper-wait pair durations per CE.
type jsonSummary struct {
	App         string           `json:"app"`
	Config      string           `json:"config"`
	CEs         int              `json:"ces"`
	Cycles      int64            `json:"cycles"`
	Records     int              `json:"records"`
	Dropped     uint64           `json:"dropped"`
	EventCounts map[string]int64 `json:"event_counts"`
	BarrierCyc  map[string]int64 `json:"barrier_cycles_per_ce"`
	HelperWait  map[string]int64 `json:"helper_wait_cycles_per_ce"`
}

func printJSONSummary(run *cedar.Run) {
	mon := run.Monitor
	s := jsonSummary{
		App:         run.Result.App,
		Config:      run.Machine.Cfg.Name,
		CEs:         run.Machine.Cfg.CEs(),
		Cycles:      int64(run.Result.CT),
		Records:     len(mon.Trace()),
		Dropped:     mon.Dropped(),
		EventCounts: map[string]int64{},
		BarrierCyc:  map[string]int64{},
		HelperWait:  map[string]int64{},
	}
	for ev := hpm.EventID(0); ev < hpm.NumEvents; ev++ {
		if n := mon.Count(ev); n > 0 {
			s.EventCounts[ev.String()] = int64(n)
		}
	}
	for ce, d := range hpm.PairDurations(mon.Trace(), hpm.EvBarrierEnter, hpm.EvBarrierExit) {
		s.BarrierCyc[fmt.Sprintf("ce%d", ce)] = int64(d)
	}
	for ce, d := range hpm.PairDurations(mon.Trace(), hpm.EvWaitStart, hpm.EvWaitEnd) {
		s.HelperWait[fmt.Sprintf("ce%d", ce)] = int64(d)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(s); err != nil {
		fmt.Fprintf(os.Stderr, "cedartrace: %v\n", err)
		os.Exit(1)
	}
}

// printObsDigest summarizes the obs recorder's spans and the sampled
// time series for a quick look without exporting files.
func printObsDigest(run *cedar.Run) {
	bundle := run.TraceBundle()
	byCat := map[string]int{}
	catTotal := map[string]int64{}
	for _, s := range bundle.Spans {
		byCat[s.Cat]++
		catTotal[s.Cat] += int64(s.End - s.Start)
	}
	fmt.Printf("observability digest: %d spans, %d instants (%d dropped at capacity)\n\n",
		len(bundle.Spans), len(bundle.Instants), run.Obs.Dropped())

	fmt.Println("spans per category:")
	cats := make([]string, 0, len(byCat))
	for c := range byCat {
		cats = append(cats, c)
	}
	sort.Strings(cats)
	for _, c := range cats {
		fmt.Printf("  %-8s %8d spans  %14d span-cycles\n", c, byCat[c], catTotal[c])
	}

	slow := append([]obs.Span(nil), bundle.Spans...)
	sort.Slice(slow, func(i, j int) bool {
		return slow[i].End-slow[i].Start > slow[j].End-slow[j].Start
	})
	if len(slow) > 10 {
		slow = slow[:10]
	}
	fmt.Println("\nslowest spans:")
	for _, s := range slow {
		track := fmt.Sprintf("ce%d", s.Track)
		if s.Track == obs.TrackMachine {
			track = "machine"
		}
		fmt.Printf("  %-8s %-24s %12d cycles  @%d\n", track, s.Name, int64(s.End-s.Start), int64(s.Start))
	}

	fmt.Println("\ntime series (mean / last):")
	for _, name := range run.Series.Names() {
		mean, err := run.Series.Mean(name)
		if err != nil {
			continue
		}
		_, vals, ok := run.Series.Last()
		last := 0.0
		if ok {
			for i, n := range run.Series.Names() {
				if n == name {
					last = vals[i]
					break
				}
			}
		}
		fmt.Printf("  %-22s %12.2f / %-12.2f (%d samples)\n", name, mean, last, run.Series.Len())
	}
}
