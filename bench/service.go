package main

// The service workload: one vectraced child under an open-loop load with
// seeded Poisson arrivals, in two steps — lo at 40 jobs/s, then hi at 100
// jobs/s, 600 jobs each at full size. Connection 1 submits every job on its
// schedule whatever the server's state; connection 2 fetches the reports in
// submission order. A job's latency runs from its due time to its received
// report, so a stall shows in every job queued behind it, and the
// generator's own lateness is measured. The mix is 60% distinct small
// sources, 20% resubmissions of an earlier source (cache hits) and 20%
// distinct VTR2 uploads, so HTTP handling, admission and the result cache
// carry the load.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"mime/multipart"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"time"
)

const (
	serviceStepJobs = 600
	jobWorkers      = 2
	// goodputLimit is the latency within which a hi-step report counts
	// toward goodput.
	goodputLimit = 100 * time.Millisecond
	// maxGenLagMs bounds the generator's p98 lateness; beyond it the load
	// was not the one scheduled and the run is invalid.
	maxGenLagMs = 5.0
	// missedMs is the latency a refused or failed job counts as: it missed
	// every limit.
	missedMs = 1e6
	// cliChecks is how many jobs per run are re-analyzed with the CLI to
	// match the service's report bytes.
	cliChecks = 8
)

var serviceSteps = []struct {
	name string
	rate float64 // jobs per second
}{{"lo", 40}, {"hi", 100}}

type jobKind int

const (
	jobLive jobKind = iota
	jobResubmit
	jobUpload
)

type job struct {
	kind jobKind
	prog int           // index into service.progs
	step int           // index into serviceSteps
	due  time.Duration // from the load's start
	body []byte
	ct   string // Content-Type of body
}

type service struct {
	progs []Program
	jobs  []job
}

func (s *service) prepare(e *env, st *wstate) error {
	r := rand.New(rand.NewSource(e.seed))
	perStep := float64(serviceStepJobs) * e.scale
	if e.seconds > 0 {
		// Size the steps so the whole schedule lasts e.seconds.
		var nominal float64
		for _, sp := range serviceSteps {
			nominal += serviceStepJobs / sp.rate
		}
		perStep *= e.seconds / nominal
	}
	n := max(int(math.Round(perStep)), 10)
	// Each step holds 60% distinct sources, 20% resubmissions and 20%
	// uploads, in a seeded order; a resubmission names a source first due at
	// least half a second earlier, so its result is cached by then (the
	// step's first resubmissions fall back to new sources).
	var at time.Duration
	distinct := 0
	for step, sp := range serviceSteps {
		kinds := make([]jobKind, n)
		for i := range kinds {
			switch {
			case i < n*6/10:
				kinds[i] = jobLive
			case i < n*8/10:
				kinds[i] = jobResubmit
			default:
				kinds[i] = jobUpload
			}
		}
		r.Shuffle(n, func(a, b int) { kinds[a], kinds[b] = kinds[b], kinds[a] })
		for _, kind := range kinds {
			at += time.Duration(r.ExpFloat64() / sp.rate * float64(time.Second))
			j := job{kind: kind, step: step, due: at, prog: -1}
			if kind == jobResubmit {
				var earlier []int
				for k := range s.jobs {
					if s.jobs[k].kind == jobLive && s.jobs[k].due <= at-500*time.Millisecond {
						earlier = append(earlier, k)
					}
				}
				if len(earlier) == 0 {
					j.kind = jobLive
				} else {
					j.prog = s.jobs[earlier[r.Intn(len(earlier))]].prog
				}
			}
			if j.prog < 0 {
				j.prog = distinct
				distinct++
			}
			s.jobs = append(s.jobs, j)
		}
	}
	s.progs = ServicePrograms(r, distinct)
	for _, p := range s.progs {
		if err := os.WriteFile(filepath.Join(e.work, p.Name+".c"), []byte(p.Source), 0o644); err != nil {
			return err
		}
	}
	for i := range s.jobs {
		j := &s.jobs[i]
		p := s.progs[j.prog]
		var trace []byte
		if j.kind == jobUpload {
			if _, err := runChild(e.work, e.tool("vectrace"), "record", p.Name+".c", "-format", "vtr2", "-o", p.Name+".vtr"); err != nil {
				return err
			}
			b, err := os.ReadFile(filepath.Join(e.work, p.Name+".vtr"))
			if err != nil {
				return err
			}
			trace = b
		}
		var err error
		if j.body, j.ct, err = submission(p, trace); err != nil {
			return err
		}
	}
	return nil
}

// submission encodes one job as the multipart form POST /v1/jobs takes.
func submission(p Program, trace []byte) ([]byte, string, error) {
	config, err := json.Marshal(map[string]any{"filename": p.Name + ".c", "line": p.Line, "instance": -1})
	if err != nil {
		return nil, "", err
	}
	var buf bytes.Buffer
	mw := multipart.NewWriter(&buf)
	write := func(name string, data []byte) error {
		w, err := mw.CreateFormField(name)
		if err == nil {
			_, err = w.Write(data)
		}
		return err
	}
	err = errors.Join(write("config", config), write("source", []byte(p.Source)))
	if trace != nil {
		err = errors.Join(err, write("trace", trace))
	}
	if err := errors.Join(err, mw.Close()); err != nil {
		return nil, "", err
	}
	return buf.Bytes(), mw.FormDataContentType(), nil
}

func (s *service) coldStarts(e *env, st *wstate) {
	for i := 0; i < coldStartSamples; i++ {
		st.attempted++
		srv, err := startServer(e.tool("vectraced"), "-job-workers", strconv.Itoa(jobWorkers))
		if err != nil {
			st.opFailed("cold start: %v", err)
			continue
		}
		st.add("setup_s", srv.ready.Seconds())
		if _, _, err := srv.stop(); err != nil {
			st.opFailed("cold start: %v", err)
		}
	}
}

// outcome is one job's fate under the load.
type outcome struct {
	id      string
	lag     time.Duration
	submit  time.Duration // POST round trip
	latency time.Duration // due to report received; 0 when it never arrived
	report  []byte
	err     error
	// queueWait and run come from the job's trace tree, for sampled jobs of
	// a traced load.
	queueWait, run time.Duration
}

// load runs the open-loop schedule against base and returns one outcome per
// job. With sample > 0 every sample-th job's trace tree is fetched too.
func (s *service) load(base string, sample int) []outcome {
	out := make([]outcome, len(s.jobs))
	newClient := func() *http.Client {
		return &http.Client{Timeout: 2 * time.Minute, Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}}
	}
	submitter, fetcher := newClient(), newClient()
	defer submitter.CloseIdleConnections()
	defer fetcher.CloseIdleConnections()

	// submitted hands each job to the fetcher once its POST returned; sized
	// to the schedule so the submitter never waits on the fetcher.
	submitted := make(chan int, len(s.jobs))
	start := time.Now().Add(50 * time.Millisecond)
	go func() {
		defer close(submitted)
		var free time.Time // when the submitting connection last came free
		for i := range s.jobs {
			j := &s.jobs[i]
			due := start.Add(j.due)
			time.Sleep(time.Until(due))
			sent := time.Now()
			o := &out[i]
			// The generator's own lateness: how long after the job became
			// sendable — due, with the connection free — it went out. Time
			// spent waiting for the previous submission's response is the
			// server's, and is already in this job's latency.
			if free.After(due) {
				due = free
			}
			o.lag = sent.Sub(due)
			resp, err := submitter.Post(base+"/v1/jobs", j.ct, bytes.NewReader(j.body))
			free = time.Now()
			o.submit = free.Sub(sent)
			if err != nil {
				o.err = err
				continue
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusAccepted {
				o.err = fmt.Errorf("submit: HTTP %d: %s %v", resp.StatusCode, bytes.TrimSpace(body), err)
				continue
			}
			var doc struct{ ID string }
			if err := json.Unmarshal(body, &doc); err != nil {
				o.err = fmt.Errorf("submit response: %v", err)
				continue
			}
			o.id = doc.ID
			submitted <- i
		}
	}()
	for i := range submitted {
		o := &out[i]
		resp, err := fetcher.Get(base + "/v1/jobs/" + o.id + "/report?wait=1")
		if err != nil {
			o.err = err
			continue
		}
		o.report, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			o.err = fmt.Errorf("report: HTTP %d: %s %v", resp.StatusCode, bytes.TrimSpace(o.report), err)
			continue
		}
		o.latency = time.Since(start.Add(s.jobs[i].due))
		if sample > 0 && i%sample == 0 {
			o.queueWait, o.run, o.err = jobTrace(fetcher, base, o.id)
		}
	}
	return out
}

// jobTrace reads a finished job's queue wait and run time from its trace
// tree: the root "job" span minus its "admission-wait" child.
func jobTrace(c *http.Client, base, id string) (wait, run time.Duration, err error) {
	resp, err := c.Get(base + "/v1/jobs/" + id + "/trace?wait=1")
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	type span struct {
		Name     string `json:"name"`
		DurNs    int64  `json:"dur_ns"`
		Children []span `json:"children"`
	}
	var doc struct {
		Trace struct {
			Roots []span `json:"roots"`
		} `json:"trace"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return 0, 0, fmt.Errorf("trace of %s: %v", id, err)
	}
	for _, root := range doc.Trace.Roots {
		if root.Name != "job" {
			continue
		}
		for _, c := range root.Children {
			if c.Name == "admission-wait" {
				wait = time.Duration(c.DurNs)
			}
		}
		return wait, time.Duration(root.DurNs) - wait, nil
	}
	return 0, 0, fmt.Errorf("trace of %s has no job span", id)
}

// statsz reads the service counters the traced run reports.
func statsz(base string) (map[string]int64, error) {
	resp, err := http.Get(base + "/statsz")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var doc struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return nil, fmt.Errorf("statsz: %v", err)
	}
	return doc.Counters, nil
}

func (s *service) unit(e *env, st *wstate) error { return s.measureLoad(e, st, false) }

// measureLoad starts a server, runs the load, checks every report, and
// records the end-to-end samples — or, traced, the service's layer metrics.
func (s *service) measureLoad(e *env, st *wstate, traced bool) error {
	srv, err := startServer(e.tool("vectraced"), "-job-workers", strconv.Itoa(jobWorkers))
	if err != nil {
		return err
	}
	sample := 0
	if traced {
		sample = 10
	}
	outs := s.load(srv.base, sample)
	counters, serr := statsz(srv.base)
	rss, cpu, stopErr := srv.stop()
	if serr != nil {
		return serr
	}
	if stopErr != nil {
		return stopErr
	}

	lat := make([][]float64, len(serviceSteps))
	var all, lags, submits, waits, runs []float64
	good := 0
	for i, o := range outs {
		j := s.jobs[i]
		st.attempted++
		ms := missedMs
		switch {
		case o.err != nil:
			st.opFailed("job %d (%s): %v", i, s.progs[j.prog].Name, o.err)
		default:
			if _, err := checkAnalysis(s.progs[j.prog], o.report); err != nil {
				st.opFailed("job %d (%s): %v", i, s.progs[j.prog].Name, err)
			} else if err := st.output(e, analysisKey(s.progs[j.prog]), o.report); err != nil {
				st.opFailed("job %d (%s): %v", i, s.progs[j.prog].Name, err)
			} else {
				ms = float64(o.latency) / float64(time.Millisecond)
			}
		}
		lat[j.step] = append(lat[j.step], ms)
		all = append(all, ms/1000)
		lags = append(lags, float64(o.lag)/float64(time.Millisecond))
		submits = append(submits, float64(o.submit)/float64(time.Millisecond))
		if j.step == 1 && ms <= float64(goodputLimit/time.Millisecond) {
			good++
		}
		if o.run > 0 {
			waits = append(waits, float64(o.queueWait)/float64(time.Millisecond))
			runs = append(runs, float64(o.run)/float64(time.Millisecond))
		}
	}
	lag := percentile(lags, 98)
	if lag > maxGenLagMs {
		st.invalidate("the load generator's p98 lateness was %.1f ms (limit %.0f ms): the schedule was not met", lag, maxGenLagMs)
	}
	if traced {
		add := func(name string, v float64) { st.layers[name] = append(st.layers[name], v) }
		add("server.submit_ms.p50", percentile(submits, 50))
		add("server.submit_ms.p98", percentile(submits, 98))
		add("server.queue_wait_ms.p50", percentile(waits, 50))
		add("server.run_ms.p50", percentile(runs, 50))
		hits, misses := counters["cache_hits"], counters["cache_misses"]
		add("server.cache_hit_ratio", float64(hits)/float64(max(hits+misses, 1)))
		add("server.refused", float64(counters["jobs_rejected"]))
		add("client.gen_lag_ms.p98", lag)
		st.unitCPU = append(st.unitCPU, cpu.Seconds())
		return nil
	}
	// At full size a step has 600 jobs, so p98 has 12 beyond it: the
	// highest percentile with ten samples beyond (see rank).
	for step, sp := range serviceSteps {
		st.add("job_p50_ms."+sp.name, percentile(lat[step], 50))
		st.add("job_p98_ms."+sp.name, percentile(lat[step], 98))
	}
	// wall_s is the unit's median job: one sample per load, like every
	// other end-to-end metric, so its spread is run-to-run, not job-to-job.
	st.add("wall_s", percentile(all, 50))
	st.add("goodput_rps.hi", float64(good)/(float64(len(lat[1]))/serviceSteps[1].rate))
	st.add("cpu_s", cpu.Seconds()/float64(len(outs)))
	st.add("peak_rss_mb", rss)
	st.unitCPU = append(st.unitCPU, cpu.Seconds())
	s.checkWithCLI(e, st)
	return nil
}

// checkWithCLI re-analyzes a seeded sample of jobs with the CLI, whose
// output must equal the service's report bytes.
func (s *service) checkWithCLI(e *env, st *wstate) {
	r := rand.New(rand.NewSource(e.seed))
	for k := 0; k < cliChecks; k++ {
		j := s.jobs[r.Intn(len(s.jobs))]
		p := s.progs[j.prog]
		args := []string{"analyze", p.Name + ".c", "-line", strconv.Itoa(p.Line), "-instance", "-1", "-json"}
		if j.kind == jobUpload {
			args = append(args, "-trace", p.Name+".vtr")
		}
		st.attempted++
		res, err := runChild(e.work, e.tool("vectrace"), args...)
		if err == nil {
			err = st.output(e, analysisKey(p), res.stdout)
		}
		if err != nil {
			st.opFailed("CLI check of %s: %v", p.Name, err)
		}
	}
}

// tracedPrep runs a load that also samples the jobs' trace trees and the
// service counters.
func (s *service) tracedPrep(e *env, st *wstate) error { return s.measureLoad(e, st, true) }

// replay rebuilds the server's analysis work — every distinct job once; a
// resubmission is a cache hit — from layer primitives.
func (s *service) replay(e *env, st *wstate, lc *layerClock) error {
	done := map[int]bool{}
	for _, j := range s.jobs {
		if j.kind == jobResubmit || done[j.prog] {
			continue
		}
		done[j.prog] = true
		p := s.progs[j.prog]
		st.attempted++
		var out []byte
		var err error
		if j.kind == jobUpload {
			var vtr []byte
			lc.skip(func() { vtr, err = os.ReadFile(filepath.Join(e.work, p.Name+".vtr")) })
			if err == nil {
				out, err = replayUpload(lc, p, vtr)
			}
		} else {
			out, err = replayLive(lc, p.Name+".c", p.Source, p.Line)
		}
		lc.skip(func() {
			if err == nil {
				_, err = checkAnalysis(p, out)
			}
			if err == nil {
				err = st.output(e, analysisKey(p), out)
			}
		})
		if err != nil {
			st.opFailed("traced %s: %v", p.Name, err)
		}
	}
	return nil
}

// replayUpload is the server's work on an uploaded trace: compile the
// source, then decode and analyze the container's regions.
func replayUpload(lc *layerClock, p Program, vtr []byte) ([]byte, error) {
	mod, err := compile(lc, p.Name+".c", p.Source)
	if err != nil {
		return nil, err
	}
	regs, err := analyzeContainer(lc, mod, vtr, p.Line)
	if err != nil {
		return nil, err
	}
	return render(lc, regs)
}
