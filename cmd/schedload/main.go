// Command schedload is jobschedd's load generator and latency probe: it
// drives a session with a seeded, reproducible stream of submissions
// from concurrent workers, honors the daemon's backpressure contract
// (Retry-After on 429/503), and reports end-to-end latency percentiles.
//
// Usage:
//
//	schedload -addr host:port [-session load] [-jobs 10000] [-workers 8]
//	          [-batch 16] [-users 4] [-nodes 256] [-advance-every 32]
//	          [-out bench.json] [-fingerprint] [-seed 1]
//
// Refused submissions (429/503) are retried after the daemon's
// Retry-After and counted in the report's retries field.
// With -fingerprint, the tool prints the session fingerprint and exits,
// which the smoke script uses to compare pre-kill and post-recovery
// state.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

type jobSpec struct {
	Name     string `json:"name,omitempty"`
	User     string `json:"user,omitempty"`
	Nodes    int    `json:"nodes"`
	Estimate int64  `json:"estimate"`
	Runtime  int64  `json:"runtime,omitempty"`
	Deadline int64  `json:"deadline,omitempty"`
}

type report struct {
	Jobs       int64   `json:"jobs"`
	Batches    int64   `json:"batches"`
	Admitted   int64   `json:"admitted"`
	Errors     int64   `json:"errors"`
	Retries    int64   `json:"retries"`
	Seconds    float64 `json:"seconds"`
	JobsPerSec float64 `json:"jobs_per_sec"`
	// Latency percentiles are per admitted batch, milliseconds,
	// end to end (queue wait + scheduling + WAL fsync).
	P50ms float64 `json:"p50_ms"`
	P90ms float64 `json:"p90_ms"`
	P95ms float64 `json:"p95_ms"`
	P99ms float64 `json:"p99_ms"`
	MaxMs float64 `json:"max_ms"`
}

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:8080", "daemon address")
		session  = flag.String("session", "load", "session name (created if absent)")
		jobs     = flag.Int("jobs", 10000, "total jobs to submit")
		workers  = flag.Int("workers", 8, "concurrent submitters")
		batch    = flag.Int("batch", 16, "jobs per submission request")
		users    = flag.Int("users", 4, "distinct user identities (admission is per user)")
		nodes    = flag.Int("nodes", 256, "machine size when creating the session")
		advEvery = flag.Int("advance-every", 32, "advance the clock after this many batches per worker (0 = never)")
		out      = flag.String("out", "", "write the JSON report here ('-' or empty = stdout only)")
		fpOnly   = flag.Bool("fingerprint", false, "print the session fingerprint and exit")
		seed     = flag.Int64("seed", 1, "workload seed (same seed, same submission stream)")
	)
	flag.Parse()

	base := "http://" + *addr
	client := &http.Client{Timeout: 30 * time.Second}
	if *fpOnly {
		fp, err := fingerprint(client, base, *session)
		if err != nil {
			fmt.Fprintln(os.Stderr, "schedload:", err)
			os.Exit(1)
		}
		fmt.Println(fp)
		return
	}

	if err := ensureSession(client, base, *session, *nodes); err != nil {
		fmt.Fprintln(os.Stderr, "schedload:", err)
		os.Exit(1)
	}

	rep, err := drive(client, base, *session, *jobs, *workers, *batch, *users, *advEvery, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "schedload:", err)
		os.Exit(1)
	}
	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "schedload:", err)
		os.Exit(1)
	}
	fmt.Println(string(enc))
	if *out != "" && *out != "-" {
		if err := os.WriteFile(*out, append(enc, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "schedload:", err)
			os.Exit(1)
		}
	}
}

// ensureSession creates the session, tolerating one that already exists.
func ensureSession(client *http.Client, base, name string, nodes int) error {
	body, err := json.Marshal(map[string]any{
		"name":   name,
		"config": map[string]any{"nodes": nodes},
	})
	if err != nil {
		return err
	}
	resp, err := client.Post(base+"/v1/sessions", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer drainClose(resp)
	if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusConflict {
		return fmt.Errorf("creating session: %s", resp.Status)
	}
	return nil
}

func fingerprint(client *http.Client, base, name string) (string, error) {
	resp, err := client.Get(base + "/v1/sessions/" + name)
	if err != nil {
		return "", err
	}
	defer drainClose(resp)
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("session info: %s", resp.Status)
	}
	var info struct {
		Fingerprint string `json:"fingerprint"`
		WALSeq      uint64 `json:"wal_seq"`
		Clock       int64  `json:"clock"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		return "", err
	}
	return fmt.Sprintf("%s wal_seq=%d clock=%d", info.Fingerprint, info.WALSeq, info.Clock), nil
}

// drive runs the workers and aggregates the report.
func drive(client *http.Client, base, session string, jobs, workers, batch, users, advEvery int, seed int64) (*report, error) {
	if workers < 1 {
		workers = 1
	}
	var (
		rep      report
		mu       sync.Mutex
		lats     []float64
		nextJob  atomic.Int64
		firstErr atomic.Value
	)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed + int64(w)))
			user := "user" + strconv.Itoa(w%users)
			batches := 0
			for {
				lo := nextJob.Add(int64(batch))
				if lo-int64(batch) >= int64(jobs) {
					return
				}
				n := batch
				if over := lo - int64(jobs); over > 0 {
					n -= int(over)
				}
				specs := make([]jobSpec, n)
				for i := range specs {
					specs[i] = jobSpec{
						Name:     fmt.Sprintf("j%d", lo-int64(batch)+int64(i)),
						User:     user,
						Nodes:    1 + r.Intn(32),
						Estimate: int64(60 * (1 + r.Intn(240))),
					}
				}
				lat, outcome, err := submit(client, base, session, user, specs, &rep.Retries)
				if err != nil {
					firstErr.Store(err)
					return
				}
				mu.Lock()
				rep.Batches++
				if outcome == http.StatusOK {
					rep.Admitted++
					rep.Jobs += int64(n)
					lats = append(lats, lat)
				} else {
					rep.Errors++
				}
				mu.Unlock()
				batches++
				if advEvery > 0 && batches%advEvery == 0 {
					if err := advance(client, base, session, int64(batches)*30); err != nil {
						firstErr.Store(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if err, ok := firstErr.Load().(error); ok && err != nil {
		return nil, err
	}
	rep.Seconds = time.Since(start).Seconds()
	if rep.Seconds > 0 {
		rep.JobsPerSec = float64(rep.Jobs) / rep.Seconds
	}
	sort.Float64s(lats)
	rep.P50ms = percentile(lats, 0.50)
	rep.P90ms = percentile(lats, 0.90)
	rep.P95ms = percentile(lats, 0.95)
	rep.P99ms = percentile(lats, 0.99)
	if len(lats) > 0 {
		rep.MaxMs = lats[len(lats)-1]
	}
	return &rep, nil
}

// submit posts one batch, honoring Retry-After on 429/503. Returns the
// last attempt's latency in ms and its status code.
func submit(client *http.Client, base, session, user string, specs []jobSpec, retries *int64) (float64, int, error) {
	body, err := json.Marshal(map[string]any{"jobs": specs})
	if err != nil {
		return 0, 0, err
	}
	for {
		req, err := http.NewRequest(http.MethodPost, base+"/v1/sessions/"+session+"/jobs", bytes.NewReader(body))
		if err != nil {
			return 0, 0, err
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-User", user)
		t0 := time.Now()
		resp, err := client.Do(req)
		if err != nil {
			return 0, 0, err
		}
		lat := float64(time.Since(t0).Microseconds()) / 1000
		status := resp.StatusCode
		retryAfter := resp.Header.Get("Retry-After")
		drainClose(resp)
		if status != http.StatusTooManyRequests && status != http.StatusServiceUnavailable {
			return lat, status, nil
		}
		secs, err := strconv.ParseFloat(retryAfter, 64)
		if err != nil || secs <= 0 {
			secs = 1
		}
		atomic.AddInt64(retries, 1)
		time.Sleep(time.Duration(secs * float64(time.Second)))
	}
}

func advance(client *http.Client, base, session string, to int64) error {
	body, err := json.Marshal(map[string]int64{"to": to})
	if err != nil {
		return err
	}
	resp, err := client.Post(base+"/v1/sessions/"+session+"/advance", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer drainClose(resp)
	// 503 during drain or overload is an accepted answer for the pacer;
	// anything else unexpected is too coarse to fail the run over.
	return nil
}

// percentile is the nearest-rank percentile of a sorted slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// drainClose releases a response so the connection can be reused.
func drainClose(resp *http.Response) {
	_, cerr := io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
	_ = cerr // best-effort connection reuse
	cerr = resp.Body.Close()
	_ = cerr // nothing actionable on a failed close
}
