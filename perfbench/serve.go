package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"jobsched/internal/serve"
	"jobsched/internal/workload"
)

// serve-replay sizes. Each session replays its own calibrated Table 2
// stream at offered logical load 0.9 — below machine capacity, so the
// pending queue stays far from max_pending and nothing is shed.
const (
	serveSessions = 2
	serveLoad     = 0.9
	serveBatch    = 16
	// preAgeJobs pushes each session past done_history (10,000 retired
	// jobs) during set-up, so every timed phase runs at steady-state
	// session size; set-up submits them in large batches.
	preAgeJobs  = 12_000
	preAgeBatch = 250
	// openRate is the open-loop phase's fixed batch rate per session:
	// about half of one session's closed-loop capacity on a 2-core host.
	openRate = 100.0
	// readEvery issues one GET session (which hashes the whole session
	// state) every readEvery open-loop batches.
	readEvery = 16
	// closedShare of the run time goes to the closed-loop phase, the
	// rest to the open-loop phase.
	closedShare = 0.65
)

// walOp is one acknowledged mutation, in the order the session applied
// it: an advance (specs nil) or a submission.
type walOp struct {
	at    int64
	specs []serve.JobSpec
}

// loadSession drives one daemon session over one HTTP connection.
type loadSession struct {
	name   string
	base   string
	client *http.Client
	stream *workload.Streamer
	// ops are the acknowledged mutations, for the in-process replay.
	ops []walOp
	// unknown is set when a mutation's outcome is unknown (transport
	// error), which makes the replay check impossible.
	unknown bool
	tally   tally
	// Open-loop samples (ms).
	submitLat, readLat, late dist
	closedJobs               int64
	// reqSeq numbers this session's requests (sent as X-Bench-Op so the
	// traced server can tag its spans); log records every request in
	// order, for the traced replay through the store's public calls.
	reqSeq int64
	log    []reqEntry
}

// Request kinds of the log.
const (
	reqCreate = iota
	reqAdvance
	reqSubmit
	reqJob
	reqInfo
)

// reqEntry is one request a session sent.
type reqEntry struct {
	seq   int64
	kind  int
	at    int64
	specs []serve.JobSpec
	id    int64
}

func newLoadSession(i int, base string, seed int64) (*loadSession, error) {
	st, err := workload.NewStreamer(workload.CalibratedStreamConfig(10_000_000, paperNodes, serveLoad, seed*100+int64(i)))
	if err != nil {
		return nil, err
	}
	return &loadSession{
		name: fmt.Sprintf("s%d", i),
		base: base,
		// One keep-alive connection per session.
		client: &http.Client{Timeout: 60 * time.Second, Transport: &http.Transport{
			MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}},
		stream: st,
	}, nil
}

func (s *loadSession) close() { s.client.CloseIdleConnections() }

// nextBatch takes n jobs off the stream; the batch time is the last
// job's submission time.
func (s *loadSession) nextBatch(n int) (int64, []serve.JobSpec, error) {
	specs := make([]serve.JobSpec, 0, n)
	var at int64
	for len(specs) < n {
		j, err := s.stream.Next()
		if err != nil {
			return 0, nil, err
		}
		specs = append(specs, serve.JobSpec{User: s.name, Nodes: j.Nodes, Estimate: j.Estimate, Runtime: j.Runtime})
		at = j.Submit
	}
	return at, specs, nil
}

// call sends one request, logs it as e, and decodes a 2xx JSON answer
// into out.
func (s *loadSession) call(e reqEntry, method, path string, body, out any) (int, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return 0, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, s.base+path, rd)
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-User", s.name)
	s.reqSeq++
	e.seq = s.reqSeq
	s.log = append(s.log, e)
	req.Header.Set("X-Bench-Op", strconv.FormatInt(s.reqSeq, 10))
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 == 2 && out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return resp.StatusCode, err
		}
	}
	_, err = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, err
}

type submitAnswer struct {
	Results []serve.SubmitResult `json:"results"`
}

// batch applies "advance to the batch time, then submit". It returns
// the first submitted job id (0 if none was acknowledged).
func (s *loadSession) batch(at int64, specs []serve.JobSpec) int64 {
	code, err := s.call(reqEntry{kind: reqAdvance, at: at}, http.MethodPost, "/v1/sessions/"+s.name+"/advance", map[string]int64{"to": at}, nil)
	switch {
	case err != nil:
		s.unknown = true
		s.tally.fail(1, "advance: "+err.Error())
	case code != http.StatusOK:
		s.tally.fail(1, fmt.Sprintf("advance: HTTP %d", code))
	default:
		s.tally.ok(1)
		s.ops = append(s.ops, walOp{at: at})
	}
	var ans submitAnswer
	code, err = s.call(reqEntry{kind: reqSubmit, specs: specs}, http.MethodPost, "/v1/sessions/"+s.name+"/jobs", map[string]any{"jobs": specs}, &ans)
	switch {
	case err != nil:
		s.unknown = true
		s.tally.fail(int64(len(specs)), "submit: "+err.Error())
		return 0
	case code != http.StatusOK:
		s.tally.fail(int64(len(specs)), fmt.Sprintf("submit: HTTP %d", code))
		return 0
	}
	s.ops = append(s.ops, walOp{specs: specs})
	countSubmit(&s.tally, ans.Results, len(specs))
	if len(ans.Results) == 0 {
		return 0
	}
	return ans.Results[0].ID
}

// countSubmit tallies one acknowledged submission: every job is one
// operation, and a job answered shed or expired failed even though the
// request succeeded.
func countSubmit(t *tally, results []serve.SubmitResult, sent int) {
	if len(results) != sent {
		t.fail(int64(sent), fmt.Sprintf("submit answered %d results for %d jobs", len(results), sent))
		return
	}
	for _, r := range results {
		switch r.Status {
		case serve.StatusShed, serve.StatusExpired:
			t.fail(1, fmt.Sprintf("job %d answered %s", r.ID, r.Status))
		default:
			t.ok(1)
		}
	}
}

// read issues a GET and times it from its send.
func (s *loadSession) read(e reqEntry, path string, out any) {
	t0 := time.Now()
	code, err := s.call(e, http.MethodGet, path, nil, out)
	s.readLat.addDur(time.Since(t0), time.Millisecond)
	switch {
	case err != nil:
		s.tally.fail(1, "read: "+err.Error())
	case code != http.StatusOK:
		s.tally.fail(1, fmt.Sprintf("read %s: HTTP %d", path, code))
	default:
		s.tally.ok(1)
	}
}

func (s *loadSession) create() error {
	code, err := s.call(reqEntry{kind: reqCreate}, http.MethodPost, "/v1/sessions", map[string]any{
		"name": s.name, "config": map[string]any{"nodes": paperNodes}}, nil)
	if err != nil {
		return err
	}
	if code != http.StatusCreated {
		return fmt.Errorf("creating session %s: HTTP %d", s.name, code)
	}
	return nil
}

// preAge submits preAgeJobs in large batches.
func (s *loadSession) preAge() error {
	for done := 0; done < preAgeJobs; done += preAgeBatch {
		at, specs, err := s.nextBatch(preAgeBatch)
		if err != nil {
			return err
		}
		s.batch(at, specs)
	}
	return nil
}

// closedLoop sends batches back to back until the deadline.
func (s *loadSession) closedLoop(until time.Time) error {
	for time.Now().Before(until) {
		at, specs, err := s.nextBatch(serveBatch)
		if err != nil {
			return err
		}
		if s.batch(at, specs) != 0 {
			s.closedJobs += int64(len(specs))
		}
	}
	return nil
}

// openLoop sends one batch every 1/openRate seconds for d, each
// followed by a GET of its first job, plus a GET session every
// readEvery batches. Submissions are timed from their due time, so a
// stall also charges the batches queued behind it.
func (s *loadSession) openLoop(d time.Duration) error {
	start := time.Now()
	for i := 0; ; i++ {
		due := start.Add(time.Duration(float64(i) / openRate * float64(time.Second)))
		if due.Sub(start) >= d {
			return nil
		}
		if w := time.Until(due); w > 0 {
			time.Sleep(w)
		}
		s.late.addDur(time.Since(due), time.Millisecond)
		at, specs, err := s.nextBatch(serveBatch)
		if err != nil {
			return err
		}
		id := s.batch(at, specs)
		s.submitLat.addDur(time.Since(due), time.Millisecond)
		if id != 0 {
			s.read(reqEntry{kind: reqJob, id: id}, fmt.Sprintf("/v1/sessions/%s/jobs/%d", s.name, id), nil)
		}
		if i%readEvery == 0 {
			s.read(reqEntry{kind: reqInfo}, "/v1/sessions/"+s.name, nil)
		}
	}
}

// info is the part of GET session the benchmark checks.
type info struct {
	Fingerprint string           `json:"fingerprint"`
	WALSeq      uint64           `json:"wal_seq"`
	Clock       int64            `json:"clock"`
	Pending     int              `json:"pending"`
	Agg         serve.Aggregates `json:"agg"`
}

func (s *loadSession) info() (info, error) {
	var in info
	code, err := s.call(reqEntry{kind: reqInfo}, http.MethodGet, "/v1/sessions/"+s.name, nil, &in)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("session %s: HTTP %d", s.name, code)
	}
	return in, err
}

// replayFingerprint applies the acknowledged op sequence to a fresh
// in-process session and returns its fingerprint as the daemon prints it.
func replayFingerprint(name string, ops []walOp) (string, *serve.Session, error) {
	sess, err := serve.NewSession(name, serve.Config{Nodes: paperNodes})
	if err != nil {
		return "", nil, err
	}
	for _, op := range ops {
		if op.specs == nil {
			err = sess.Advance(op.at)
		} else {
			_, err = sess.Submit(op.specs)
		}
		if err != nil {
			return "", nil, err
		}
	}
	return fmt.Sprintf("%016x", sess.Fingerprint()), sess, nil
}

// eachSession runs f on every session concurrently and returns the
// first error.
func eachSession(ss []*loadSession, f func(*loadSession) error) error {
	errs := make([]error, len(ss))
	var wg sync.WaitGroup
	for i, s := range ss {
		wg.Add(1)
		go func(i int, s *loadSession) {
			defer wg.Done()
			errs[i] = f(s)
		}(i, s)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// logTail keeps the daemon's last log lines for error reports and,
// between startLiveHeap and stopLiveHeap, records the live heap of every
// GODEBUG=gctrace=1 line ("A->B->C MB": C is the heap marked live).
type logTail struct {
	mu      sync.Mutex
	partial []byte
	lines   []string
	live    *liveHeap
}

var gcLine = regexp.MustCompile(`^gc \d+ .* \d+->\d+->(\d+) MB`)

func (l *logTail) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.partial = append(l.partial, p...)
	for {
		i := bytes.IndexByte(l.partial, '\n')
		if i < 0 {
			break
		}
		line := string(l.partial[:i])
		l.partial = l.partial[i+1:]
		if m := gcLine.FindStringSubmatch(line); m != nil {
			if v, err := strconv.Atoi(m[1]); err == nil && l.live != nil {
				l.live.add(float64(v))
			}
			continue
		}
		l.lines = append(l.lines, line)
		if len(l.lines) > 20 {
			l.lines = l.lines[1:]
		}
	}
	return len(p), nil
}

func (l *logTail) startLiveHeap() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.live = &liveHeap{}
}

// stopLiveHeap returns the mean live heap in MB since startLiveHeap.
func (l *logTail) stopLiveHeap() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	live := l.live
	l.live = nil
	if live == nil {
		return 0
	}
	return live.meanMB()
}

func (l *logTail) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return strings.Join(l.lines, "\n")
}

// daemon is one jobschedd subprocess.
type daemon struct {
	cmd  *exec.Cmd
	base string
	log  *logTail
	// exited receives cmd.Wait's result once the process has ended.
	exited chan error
}

// startDaemon starts jobschedd on a free loopback port and returns once
// it listens (it opens and recovers its data directory before that).
func startDaemon(bin, data string) (*daemon, error) {
	addrFile := data + ".addr"
	if err := os.Remove(addrFile); err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	d := &daemon{log: &logTail{}}
	d.cmd = exec.Command(filepath.Join(bin, "jobschedd"), "-addr", "127.0.0.1:0", "-addrfile", addrFile, "-data", data)
	d.cmd.Env = append(os.Environ(), "GODEBUG=gctrace=1")
	d.cmd.Stderr = d.log
	// The daemon must not outlive the benchmark, even if the benchmark
	// itself is killed.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	d.exited = make(chan error, 1)
	go func() { d.exited <- d.cmd.Wait() }()
	deadline := time.Now().Add(60 * time.Second)
	for {
		if b, err := os.ReadFile(addrFile); err == nil && bytes.HasSuffix(b, []byte("\n")) {
			d.base = "http://" + strings.TrimSpace(string(b))
			return d, nil
		}
		select {
		case err := <-d.exited:
			return nil, fmt.Errorf("jobschedd exited before listening (%v): %s", err, d.log.String())
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, fmt.Errorf("jobschedd did not listen within 60s")
		}
	}
}

// kill sends SIGKILL and waits for the process to end.
func (d *daemon) kill() {
	if err := d.cmd.Process.Kill(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: killing jobschedd:", err)
	}
	<-d.exited
}

// stop drains the daemon with SIGTERM (its clean shutdown), killing it
// if it has not exited within 30s.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return err
	}
	select {
	case err := <-d.exited:
		if err != nil {
			return fmt.Errorf("jobschedd drain: %v: %s", err, d.log.String())
		}
		return nil
	case <-time.After(30 * time.Second):
		d.kill()
		return fmt.Errorf("jobschedd did not drain within 30s")
	}
}

func newSessions(base string, seed int64) ([]*loadSession, error) {
	ss := make([]*loadSession, serveSessions)
	for i := range ss {
		s, err := newLoadSession(i, base, seed)
		if err != nil {
			return nil, err
		}
		ss[i] = s
	}
	return ss, nil
}

// prepareSessions creates the sessions on the server at base and
// pre-ages them.
func prepareSessions(base string, seed int64) ([]*loadSession, error) {
	ss, err := newSessions(base, seed)
	if err != nil {
		return nil, err
	}
	return ss, eachSession(ss, func(s *loadSession) error {
		if err := s.create(); err != nil {
			return err
		}
		return s.preAge()
	})
}

// runPhases runs the closed-loop phase for closedShare of the run time,
// then the open-loop phase for the rest, and returns the jobs the
// closed loop had acknowledged and its wall time.
func runPhases(ss []*loadSession, seconds float64) (int64, time.Duration, error) {
	closedD := time.Duration(seconds * closedShare * float64(time.Second))
	openD := time.Duration(seconds*float64(time.Second)) - closedD
	t0 := time.Now()
	until := t0.Add(closedD)
	if err := eachSession(ss, func(s *loadSession) error { return s.closedLoop(until) }); err != nil {
		return 0, 0, err
	}
	closedWall := time.Since(t0)
	if err := eachSession(ss, func(s *loadSession) error { return s.openLoop(openD) }); err != nil {
		return 0, 0, err
	}
	var jobs int64
	for _, s := range ss {
		jobs += s.closedJobs
	}
	return jobs, closedWall, nil
}

// setUpServe starts a daemon on a fresh data directory, creates the
// sessions and pre-ages them.
func setUpServe(bin, data string, seed int64) (*daemon, []*loadSession, error) {
	d, err := startDaemon(bin, data)
	if err != nil {
		return nil, nil, err
	}
	ss, err := prepareSessions(d.base, seed)
	if err != nil {
		d.kill()
		return nil, nil, err
	}
	return d, ss, nil
}

// runServeReplay drives jobschedd as a subprocess: a closed-loop phase
// (throughput), an open-loop phase at a fixed rate (latency from due
// time, reads beside writes), then SIGKILL and recovery.
func runServeReplay(cfg runConfig) (*report, error) {
	rep := newReport()
	var (
		d    *daemon
		ss   []*loadSession
		data string
	)
	defer func() {
		if d != nil {
			d.kill()
		}
	}()
	for i := 0; i < setupRepeats; i++ {
		if d != nil {
			for _, s := range ss {
				s.close()
			}
			if err := d.stop(); err != nil {
				d = nil
				return nil, err
			}
			d = nil
			if err := os.RemoveAll(data); err != nil {
				return nil, err
			}
		}
		data = filepath.Join(cfg.work, fmt.Sprintf("data%d", i))
		t0 := time.Now()
		var err error
		if d, ss, err = setUpServe(cfg.bin, data, cfg.seed); err != nil {
			return nil, err
		}
		rep.setup = append(rep.setup, time.Since(t0).Seconds())
	}
	for _, s := range ss {
		in, err := s.info()
		if err != nil {
			return nil, err
		}
		rep.tally.check(in.Agg.Completed >= 10_000,
			fmt.Sprintf("session %s pre-aged to only %d completed jobs", s.name, in.Agg.Completed))
	}

	d.log.startLiveHeap()
	closedJobs, closedWall, err := runPhases(ss, cfg.seconds)
	if err != nil {
		return nil, err
	}
	rep.metrics["live_heap_mb"] = d.log.stopLiveHeap()

	var submitLat, readLat, late dist
	preKill := make([]info, len(ss))
	for i, s := range ss {
		submitLat.xs = append(submitLat.xs, s.submitLat.xs...)
		readLat.xs = append(readLat.xs, s.readLat.xs...)
		late.xs = append(late.xs, s.late.xs...)
		in, err := s.info()
		if err != nil {
			return nil, err
		}
		preKill[i] = in
		if s.unknown {
			rep.tally.check(false, "session "+s.name+": a mutation's outcome is unknown, the replay cannot be compared")
			continue
		}
		fp, _, err := replayFingerprint(s.name, s.ops)
		if err != nil {
			return nil, err
		}
		rep.tally.check(fp == in.Fingerprint,
			fmt.Sprintf("session %s: daemon fingerprint %s, in-process replay %s", s.name, in.Fingerprint, fp))
	}
	rep.metrics["jobs_per_s"] = float64(closedJobs) / closedWall.Seconds()

	recoverS, err := killAndRecover(cfg, rep, &d, ss, data, preKill)
	if err != nil {
		return nil, err
	}
	for _, s := range ss {
		rep.tally.merge(&s.tally)
		s.close()
	}

	rep.note("sizes: %d sessions x 1 connection (nproc %d), %d nodes, logical load %.1f, %d-job batches, session age %d jobs (done_history 10000), open-loop rate %g batches/s/session",
		serveSessions, runtime.NumCPU(), paperNodes, serveLoad, serveBatch, preAgeJobs, openRate)
	rep.note("serve_jobs_per_s = %.6g (closed loop, %d jobs in %.3fs)", rep.metrics["jobs_per_s"], closedJobs, closedWall.Seconds())
	p50, _ := submitLat.q(0.50)
	p99, ok99 := submitLat.q(0.99)
	r99, okR := readLat.q(0.99)
	l99, _ := late.q(0.99)
	rep.note("submit_p50_ms = %.4g, submit_p99_ms = %.4g%s (n=%d, from due time)", p50, p99, tailNote(ok99), submitLat.n())
	rep.note("read_p99_ms = %.4g%s (n=%d)", r99, tailNote(okR), readLat.n())
	rep.note("recover_s = %.4g (SIGKILL until both sessions serve their pre-kill fingerprints)", recoverS)
	rep.note("loadgen late_p99_ms = %.4g (n=%d)", l99, late.n())
	if cfg.traced {
		rep.metrics["loadgen.late_p99_ms"] = l99
		return rep, traceServe(cfg, rep, rep.metrics["jobs_per_s"])
	}
	return rep, nil
}

func tailNote(ok bool) string {
	if ok {
		return ""
	}
	return " (too few samples for p99: highest rank with 10 beyond)"
}

// killAndRecover SIGKILLs the daemon, restarts it on the same data
// directory, and times until every session serves its pre-kill
// fingerprint. The restarted daemon is drained before returning.
func killAndRecover(cfg runConfig, rep *report, d **daemon, ss []*loadSession, data string, preKill []info) (float64, error) {
	t0 := time.Now()
	(*d).kill()
	*d = nil
	nd, err := startDaemon(cfg.bin, data)
	if err != nil {
		return 0, err
	}
	*d = nd
	for i, s := range ss {
		s.close()
		s.base = nd.base
		for {
			in, err := s.info()
			if err == nil && in.Fingerprint == preKill[i].Fingerprint && in.WALSeq == preKill[i].WALSeq {
				rep.tally.check(true, "")
				break
			}
			if time.Since(t0) > 60*time.Second {
				rep.tally.check(false, fmt.Sprintf("session %s did not recover its pre-kill fingerprint %s (last: %+v, %v)",
					s.name, preKill[i].Fingerprint, in, err))
				break
			}
			time.Sleep(time.Millisecond)
		}
	}
	recoverS := time.Since(t0).Seconds()
	err = nd.stop()
	*d = nil
	return recoverS, err
}
