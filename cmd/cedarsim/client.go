package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	cedar "repro"
	"repro/internal/arch"
	"repro/internal/perfect"
	"repro/internal/scenario"
	"repro/internal/serve"
)

// runStatfx runs the scenario locally and prints only its canonical
// statfx accounting block — the byte-stable text a cedarserved job
// returns for the same scenario, so the two are directly diffable. A
// -metrics path still works here (written to its own file; drop
// warnings go to stderr), keeping stdout byte-stable.
func runStatfx(app perfect.App, cfg arch.Config, opts cedar.Options, exp exporter) {
	run, err := cedar.SimulateRunErr(app, cfg, opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cedarsim: %v\n", err)
		os.Exit(1)
	}
	fmt.Print(run.StatfxText())
	exp.write(run)
}

// jobSpec turns the scenario into the simulate job that runs it on a
// cedarserved instance. A single-line app source (registry name or
// gen: spec) travels as the job's app, whichever key the scenario
// spelled it with, and an inline workload document as its workload, so
// one run has one cache address. The service runs a simulate job
// unscaled and expects it to complete; a scenario that asks for
// anything else is refused rather than silently run differently.
func jobSpec(sc *scenario.Scenario) (serve.JobSpec, error) {
	if f := sc.ScaleFactor(); f != 1 {
		return serve.JobSpec{}, fmt.Errorf("scenario %s: scale %d: the service runs simulate jobs unscaled (scale=1)", sc.Name, f)
	}
	if e := sc.Expectation(); e != scenario.ExpectOK {
		return serve.JobSpec{}, fmt.Errorf("scenario %s: expect %s: the service only runs scenarios expected to complete (use -replay)", sc.Name, e)
	}
	spec := serve.JobSpec{
		Type:      serve.TypeSimulate,
		Config:    sc.Config,
		Steps:     sc.Steps,
		Seed:      sc.Seed,
		Plan:      sc.Plan.String(),
		MaxCycles: sc.MaxCycles,
	}
	if src := sc.App + sc.Workload; strings.Contains(src, "\n") {
		spec.Workload = src
	} else {
		spec.App = src
	}
	return spec, nil
}

// runRemote submits the scenario to a cedarserved instance as a
// simulate job (see jobSpec), polls it to a terminal state, and prints
// the job's canonical statfx result — byte-identical to what -statfx
// prints locally for the same scenario.
func runRemote(server string, sc *scenario.Scenario) {
	spec, err := jobSpec(sc)
	if err != nil {
		usageErr("-server: %v", err)
	}
	base := strings.TrimRight(server, "/")
	body, err := json.Marshal(spec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cedarsim: %v\n", err)
		os.Exit(1)
	}
	resp, err := http.Post(base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		fmt.Fprintf(os.Stderr, "cedarsim: submitting to %s: %v\n", server, err)
		os.Exit(1)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK, http.StatusAccepted:
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		retry := resp.Header.Get("Retry-After")
		fmt.Fprintf(os.Stderr, "cedarsim: server busy (%s, retry after %ss): %s\n",
			resp.Status, retry, strings.TrimSpace(string(raw)))
		os.Exit(1)
	default:
		fmt.Fprintf(os.Stderr, "cedarsim: submit rejected (%s): %s\n",
			resp.Status, strings.TrimSpace(string(raw)))
		os.Exit(1)
	}
	var sub struct {
		ID    string `json:"id"`
		State string `json:"state"`
	}
	if err := json.Unmarshal(raw, &sub); err != nil || sub.ID == "" {
		fmt.Fprintf(os.Stderr, "cedarsim: bad submit response: %s\n", raw)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "cedarsim: job %s %s\n", sub.ID, sub.State)

	// Poll to a terminal state (a cache hit arrives already done).
	state := sub.State
	var jobErr, jobPanic string
	for state == "queued" || state == "running" {
		time.Sleep(100 * time.Millisecond)
		jr, err := http.Get(base + "/jobs/" + sub.ID)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cedarsim: polling job %s: %v\n", sub.ID, err)
			os.Exit(1)
		}
		var view struct {
			State string `json:"state"`
			Error string `json:"error"`
			Panic string `json:"panic"`
		}
		jerr := json.NewDecoder(jr.Body).Decode(&view)
		jr.Body.Close()
		if jerr != nil {
			fmt.Fprintf(os.Stderr, "cedarsim: polling job %s: %v\n", sub.ID, jerr)
			os.Exit(1)
		}
		state, jobErr, jobPanic = view.State, view.Error, view.Panic
	}
	if state != "done" {
		msg := jobErr
		if jobPanic != "" {
			msg = fmt.Sprintf("%s (panic: %s)", msg, jobPanic)
		}
		fmt.Fprintf(os.Stderr, "cedarsim: job %s %s: %s\n", sub.ID, state, msg)
		os.Exit(1)
	}
	rr, err := http.Get(base + "/jobs/" + sub.ID + "/result")
	if err != nil {
		fmt.Fprintf(os.Stderr, "cedarsim: fetching result: %v\n", err)
		os.Exit(1)
	}
	defer rr.Body.Close()
	if rr.StatusCode != http.StatusOK {
		payload, _ := io.ReadAll(rr.Body)
		fmt.Fprintf(os.Stderr, "cedarsim: result %s: %s\n", rr.Status, payload)
		os.Exit(1)
	}
	if _, err := io.Copy(os.Stdout, rr.Body); err != nil {
		fmt.Fprintf(os.Stderr, "cedarsim: %v\n", err)
		os.Exit(1)
	}
}
