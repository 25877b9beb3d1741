package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"jobsched/internal/serve"
)

// spanKey identifies one request: session index and request number.
type spanKey struct {
	session int
	seq     int64
}

func keyOf(name string, seq int64) spanKey {
	i, _ := strconv.Atoi(name[1:])
	return spanKey{i, seq}
}

// traceServe is the in-process traced run. Phase A serves the same
// traffic as the untraced run from serve.OpenStore + serve.NewServer
// behind a loopback listener, with a span around every ServeHTTP.
// Phase B replays each session's request log through the public calls
// the handler makes, in its order, on a fresh store (admission, store
// submit/advance/info/job), on an in-memory Session replica, and on a
// scratch WAL; then it copies the idle store's directory, which is
// what a SIGKILL leaves, and times serve.OpenStore on it.
func traceServe(cfg runConfig, rep *report, untracedJobsPerS float64) error {
	tr := newTracer()
	a, err := tracedHTTP(cfg, tr)
	if err != nil {
		return err
	}
	ss := a.sessions
	mt := rep.metrics
	mt["run.trace_overhead_s"] = a.closedWall.Seconds() - float64(a.closedJobs)/untracedJobsPerS
	mt["run.uncovered_share"] = 1 - a.covered.Seconds()/a.wall.Seconds()
	for _, s := range ss {
		rep.tally.merge(&s.tally)
		if s.tally.failed > 0 {
			rep.tally.check(false, "traced session "+s.name+": "+s.tally.firstFailure)
		}
	}

	b, err := replayStore(cfg, ss)
	if err != nil {
		return err
	}
	var httpSelf dist
	for k, d := range a.spans {
		if st, ok := b.storeCalls[k]; ok {
			httpSelf.addDur(d-st, time.Millisecond)
		}
	}
	setDist(mt, "serve.http_self_ms", &httpSelf)
	setDist(mt, "serve.store_submit_ms", &b.submit)
	setDist(mt, "serve.store_advance_ms", &b.advance)
	setDist(mt, "serve.store_info_ms", &b.info)
	a99, _ := b.admission.q(0.99)
	mt["serve.admission_us.p99"] = a99
	mt["serve.admission_us.n"] = float64(b.admission.n())
	commitMed, _ := b.commits.q(0.5)
	snapMed, _ := b.snapCommits.q(0.5)
	mt["serve.snapshot_commit_ms"] = snapMed - commitMed
	rep.note("traced: %d snapshot-crossing commits of %d", b.snapCommits.n(), b.commits.n())

	var apply, walAppend, fps, capture dist
	var walBytes, jobs int64
	var snapBytes float64
	for i, s := range ss {
		r, err := replayReplica(cfg, s)
		if err != nil {
			return err
		}
		apply.xs = append(apply.xs, r.apply.xs...)
		walAppend.xs = append(walAppend.xs, r.wal.xs...)
		fps.xs = append(fps.xs, r.fingerprint.xs...)
		capture.xs = append(capture.xs, r.capture.xs...)
		walBytes += r.walBytes
		jobs += r.jobs
		snapBytes += float64(r.snapBytes)
		rep.tally.check(r.fp == a.infos[i].Fingerprint && r.fp == b.fps[i],
			fmt.Sprintf("session %s: replica %s, traced server %s, replayed store %s", s.name, r.fp, a.infos[i].Fingerprint, b.fps[i]))
	}
	setDist(mt, "serve.session_apply_ms", &apply)
	setDist(mt, "serve.wal_append_ms", &walAppend)
	mt["serve.wal_bytes_per_job"] = float64(walBytes) / float64(jobs)
	mt["serve.fingerprint_ms"], _ = fps.q(0.5)
	mt["serve.snapshot_capture_ms"], _ = capture.q(0.5)
	mt["serve.snapshot_bytes"] = snapBytes / float64(len(ss))

	rec, err := recoverCopy(cfg, b.dir, ss, b.fps)
	if err != nil {
		return err
	}
	mt["serve.recover_ms"] = rec.ms
	mt["serve.wal_bytes"] = float64(rec.walBytes)
	mt["serve.wal_records_replayed"] = float64(rec.replayed)
	rep.tally.check(rec.why == "", rec.why)
	return writeTrace(cfg, "serve-replay", tr, nil)
}

// setDist reports a distribution as <name>.p50, .p99 and .n.
func setDist(mt map[string]float64, name string, d *dist) {
	mt[name+".p50"], _ = d.q(0.50)
	mt[name+".p99"], _ = d.q(0.99)
	mt[name+".n"] = float64(d.n())
}

// httpPhase is what phase A measured.
type httpPhase struct {
	sessions []*loadSession
	// spans holds the ServeHTTP span of every request.
	spans map[spanKey]time.Duration
	// wall is the timed phases' wall time, covered the part of it inside
	// some ServeHTTP span.
	wall, covered time.Duration
	closedJobs    int64
	closedWall    time.Duration
	infos         []info
}

// tracedHTTP runs phase A: set-up and the timed phases against an
// in-process server whose handler is wrapped in a span.
func tracedHTTP(cfg runConfig, tr *tracer) (a *httpPhase, err error) {
	store, err := serve.OpenStore(filepath.Join(cfg.work, "traced-http"), serve.StoreOptions{})
	if err != nil {
		return nil, err
	}
	srv := serve.NewServer(store, serve.ServerOptions{})
	handler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seq, _ := strconv.ParseInt(r.Header.Get("X-Bench-Op"), 10, 64)
		k := keyOf(r.Header.Get("X-User"), seq)
		tr.do("serve.http", 0, int64(k.session)<<40|k.seq, func(int64) { srv.ServeHTTP(w, r) })
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: handler}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if serr := hs.Shutdown(ctx); serr != nil && err == nil {
			err = serr
		}
		<-served
		if derr := store.Drain(ctx); derr != nil && err == nil {
			err = derr
		}
	}()

	a = &httpPhase{}
	if a.sessions, err = prepareSessions("http://"+ln.Addr().String(), cfg.seed); err != nil {
		return nil, err
	}
	p0 := tr.now()
	if a.closedJobs, a.closedWall, err = runPhases(a.sessions, cfg.seconds); err != nil {
		return nil, err
	}
	a.wall = tr.now() - p0
	for _, s := range a.sessions {
		in, err := s.info()
		if err != nil {
			return nil, err
		}
		a.infos = append(a.infos, in)
		s.close()
	}
	tr.mu.Lock()
	all := append([]span(nil), tr.spans...)
	tr.mu.Unlock()
	a.spans = map[spanKey]time.Duration{}
	for _, s := range all {
		a.spans[spanKey{int(s.req >> 40), s.req & (1<<40 - 1)}] = s.dur()
	}
	a.covered = covered(all, p0, p0+a.wall)
	return a, nil
}

// storeReplay is what phase B measured on the fresh store.
type storeReplay struct {
	dir                              string
	storeCalls                       map[spanKey]time.Duration
	submit, advance, info, admission dist
	commits, snapCommits             dist
	fps                              []string
}

// replayStore replays every session's request log concurrently through
// the calls handleCreate/handleSubmit/handleAdvance/handleJob/handleInfo
// make, timing each.
func replayStore(cfg runConfig, ss []*loadSession) (*storeReplay, error) {
	b := &storeReplay{dir: filepath.Join(cfg.work, "traced-store"), storeCalls: map[spanKey]time.Duration{}}
	store, err := serve.OpenStore(b.dir, serve.StoreOptions{})
	if err != nil {
		return nil, err
	}
	buckets := serve.NewBuckets(0, 0, nil)
	parts := make([]*storeReplay, len(ss))
	errs := make([]error, len(ss))
	var wg sync.WaitGroup
	for i, s := range ss {
		wg.Add(1)
		go func(i int, s *loadSession) {
			defer wg.Done()
			p := &storeReplay{storeCalls: map[spanKey]time.Duration{}}
			parts[i] = p
			errs[i] = replayLog(store, buckets, s, p)
		}(i, s)
	}
	wg.Wait()
	for i, p := range parts {
		if errs[i] != nil {
			return nil, errs[i]
		}
		for k, v := range p.storeCalls {
			b.storeCalls[k] = v
		}
		for _, pair := range [][2]*dist{{&b.submit, &p.submit}, {&b.advance, &p.advance}, {&b.info, &p.info},
			{&b.admission, &p.admission}, {&b.commits, &p.commits}, {&b.snapCommits, &p.snapCommits}} {
			pair[0].xs = append(pair[0].xs, pair[1].xs...)
		}
		in, err := store.Info(ss[i].name)
		if err != nil {
			return nil, err
		}
		b.fps = append(b.fps, in.Fingerprint)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	// The copy taken before the drain is the killed directory; the drain
	// itself is not measured.
	if err := copyDir(b.dir, b.dir+"-killed"); err != nil {
		return nil, err
	}
	return b, store.Drain(ctx)
}

// replayLog replays one session's requests in order.
func replayLog(store *serve.Store, buckets *serve.Buckets, s *loadSession, p *storeReplay) error {
	ctx := context.Background()
	records := 0
	timed := func(k spanKey, d *dist, unit time.Duration, f func() error) error {
		t0 := time.Now()
		err := f()
		el := time.Since(t0)
		p.storeCalls[k] += el
		if d != nil {
			d.addDur(el, unit)
		}
		return err
	}
	info := func(k spanKey) error {
		return timed(k, &p.info, time.Millisecond, func() error { _, err := store.Info(s.name); return err })
	}
	commit := func(k spanKey, d *dist, f func() error) error {
		t0 := time.Now()
		if err := timed(k, d, time.Millisecond, f); err != nil {
			return err
		}
		el := float64(time.Since(t0)) / float64(time.Millisecond)
		records++
		p.commits.add(el)
		if records%serveSnapshotEvery == 0 {
			p.snapCommits.add(el)
		}
		return nil
	}
	for _, e := range s.log {
		k := keyOf(s.name, e.seq)
		var err error
		switch e.kind {
		case reqCreate:
			err = timed(k, nil, 0, func() error { return store.Create(s.name, serve.Config{Nodes: paperNodes}) })
			if err == nil {
				err = info(k)
			}
		case reqAdvance:
			err = commit(k, &p.advance, func() error { return store.Advance(ctx, s.name, e.at) })
			if err == nil {
				err = info(k)
			}
		case reqSubmit:
			err = timed(k, &p.admission, time.Microsecond, func() error {
				if max := buckets.MaxBatch(); max > 0 && len(e.specs) > max {
					return fmt.Errorf("batch over burst")
				}
				if ok, _ := buckets.AllowN(s.name, len(e.specs)); !ok {
					return fmt.Errorf("rate limited")
				}
				return nil
			})
			if err == nil {
				err = commit(k, &p.submit, func() error { _, err := store.Submit(ctx, s.name, e.specs); return err })
			}
			if err == nil {
				err = info(k)
			}
		case reqJob:
			err = timed(k, nil, 0, func() error { _, err := store.Job(s.name, e.id); return err })
		case reqInfo:
			err = info(k)
		}
		if err != nil {
			return fmt.Errorf("replaying %s request %d: %w", s.name, e.seq, err)
		}
	}
	return nil
}

// serveSnapshotEvery is the store's default snapshot cadence (records),
// which jobschedd also uses.
const serveSnapshotEvery = 256

// replicaReplay is what the in-memory replica and scratch WAL measured.
type replicaReplay struct {
	apply, wal, fingerprint, capture dist
	walBytes, jobs                   int64
	snapBytes                        int
	fp                               string
}

// replayReplica applies a session's mutations to an in-memory Session
// and appends the records the store would write to a scratch WAL.
func replayReplica(cfg runConfig, s *loadSession) (*replicaReplay, error) {
	r := &replicaReplay{}
	sess, err := serve.NewSession(s.name, serve.Config{Nodes: paperNodes})
	if err != nil {
		return nil, err
	}
	path := filepath.Join(cfg.work, "replica-"+s.name+".wal")
	wal, _, err := serve.OpenWAL(path)
	if err != nil {
		return nil, err
	}
	defer wal.Close()
	for _, e := range s.log {
		var rec serve.Record
		t0 := time.Now()
		switch e.kind {
		case reqAdvance:
			err = sess.Advance(e.at)
			rec = serve.Record{Op: "advance", At: e.at}
		case reqSubmit:
			_, err = sess.Submit(e.specs)
			rec = serve.Record{Op: "submit", At: sess.Clock(), Jobs: e.specs}
			r.jobs += int64(len(e.specs))
		default:
			continue
		}
		r.apply.addDur(time.Since(t0), time.Millisecond)
		if err != nil {
			return nil, err
		}
		t0 = time.Now()
		if err := wal.Append([]serve.Record{rec}); err != nil {
			return nil, err
		}
		r.wal.addDur(time.Since(t0), time.Millisecond)
	}
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		r.fp = fmt.Sprintf("%016x", sess.Fingerprint())
		r.fingerprint.addDur(time.Since(t0), time.Millisecond)
		t0 = time.Now()
		snap := sess.Snapshot(wal.LastSeq())
		r.capture.addDur(time.Since(t0), time.Millisecond)
		data, err := json.MarshalIndent(snap, "", " ")
		if err != nil {
			return nil, err
		}
		r.snapBytes = len(data)
	}
	fi, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	r.walBytes = fi.Size()
	return r, nil
}

type recovery struct {
	ms                 float64
	walBytes, replayed int64
	why                string
}

// recoverCopy times serve.OpenStore on the killed copy of the replayed
// store and checks every session comes back with its fingerprint.
func recoverCopy(cfg runConfig, dir string, ss []*loadSession, fps []string) (*recovery, error) {
	killed := dir + "-killed"
	r := &recovery{}
	for _, s := range ss {
		sd := filepath.Join(killed, "sessions", s.name)
		fi, err := os.Stat(filepath.Join(sd, "wal.jsonl"))
		if err != nil {
			return nil, err
		}
		r.walBytes += fi.Size()
		var snap struct {
			WALSeq uint64 `json:"wal_seq"`
		}
		if data, err := os.ReadFile(filepath.Join(sd, "snapshot.json")); err == nil {
			if err := json.Unmarshal(data, &snap); err != nil {
				return nil, err
			}
		}
		r.replayed -= int64(snap.WALSeq)
	}
	t0 := time.Now()
	store, err := serve.OpenStore(killed, serve.StoreOptions{})
	r.ms = float64(time.Since(t0)) / float64(time.Millisecond)
	if err != nil {
		return nil, err
	}
	for i, s := range ss {
		in, err := store.Info(s.name)
		if err != nil {
			return nil, err
		}
		r.replayed += int64(in.WALSeq)
		if in.Fingerprint != fps[i] && r.why == "" {
			r.why = fmt.Sprintf("session %s recovered to %s, want %s", s.name, in.Fingerprint, fps[i])
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return r, store.Drain(ctx)
}

// copyDir copies a directory tree of regular files.
func copyDir(src, dst string) error {
	return filepath.Walk(src, func(path string, fi os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if fi.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}
