package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"time"

	"bgpworms/internal/durable"
	"bgpworms/internal/obs"
	"bgpworms/internal/semantics"
	"bgpworms/internal/serve"
	"bgpworms/internal/watch"
)

// fleetShards is the detection fleet's shard count.
const fleetShards = 2

// feedSource labels every event the benchmark feeds.
const feedSource = "bench"

// shard is one in-process wormwatchd shard: a durable store with
// RangeMap ownership in front of a watch + semantics engine pair, and a
// serve.Server on a loopback listener. Every layer runs at its
// defaults (the daemon's 50ms group-commit fsync included); the
// detectors read a dictionary frozen after the warm-up slice.
type shard struct {
	dir    string
	eng    *watch.Engine
	sem    *semantics.Engine
	holder *semantics.Holder
	store  *durable.Store
	rec    durable.Recovery
	reg    *obs.Registry
	http   *http.Server
	url    string
}

// openShard opens (or recovers) shard index's durability directory on
// fresh engines.
func openShard(dir string, index int, dict *semantics.Snapshot) (*shard, error) {
	s := &shard{dir: dir, reg: obs.NewRegistry(), holder: &semantics.Holder{}}
	s.sem = semantics.NewEngine(semantics.Config{Metrics: s.reg})
	s.eng = watch.NewEngine(watch.Config{Dict: dict, Semantics: s.sem, Metrics: s.reg})
	var err error
	s.store, s.rec, err = durable.Open(s.eng, s.sem, durable.Options{
		Dir:     dir,
		Owner:   serve.NewRangeMap(fleetShards).OwnerFunc(index),
		Metrics: s.reg,
	})
	if err != nil {
		s.eng.Close()
		s.sem.Close()
		return nil, err
	}
	return s, nil
}

// serve starts the shard's HTTP server on a loopback port.
func (s *shard) serve(index int) error {
	srv := serve.New(serve.Options{
		Watch: s.eng, Semantics: s.sem, Holder: s.holder, Registry: s.reg,
		Store: s.store, ShardIndex: index, ShardCount: fleetShards,
	})
	url, h, err := listen(srv.Handler())
	s.url, s.http = url, h
	return err
}

// flush drains both engines.
func (s *shard) flush() {
	s.eng.Flush()
	s.sem.Flush()
}

// heartbeat is wormwatchd's 500ms flush heartbeat: it surfaces partial
// engine batches and refreshes the snapshot /dict serves.
func (s *shard) heartbeat() {
	s.eng.Flush()
	s.holder.Store(s.sem.Snapshot())
}

func (s *shard) close() {
	if s.http != nil {
		s.http.Close()
	}
	if s.store != nil {
		s.store.Close()
	}
	s.eng.Close()
	s.sem.Close()
}

// listen serves h on a fresh loopback port.
func listen(h http.Handler) (string, *http.Server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: h}
	go srv.Serve(ln)
	return "http://" + ln.Addr().String(), srv, nil
}

// fleet is fleetShards shards behind a serve.Frontend.
type fleet struct {
	shards []*shard
	feReg  *obs.Registry
	fe     *http.Server
	url    string
	client *http.Client
}

// startFleet opens every shard directory (recovering what is there) in
// parallel, then starts the shard servers and the frontend.
func startFleet(dirs []string, dict *semantics.Snapshot) (*fleet, error) {
	shards := make([]*shard, len(dirs))
	errs := make([]error, len(dirs))
	var wg sync.WaitGroup
	for i, d := range dirs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			shards[i], errs[i] = openShard(d, i, dict)
		}()
	}
	wg.Wait()
	f := newFleet(shards)
	for i, err := range errs {
		if err != nil {
			f.close()
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
	}
	if err := f.serve(); err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

func newFleet(shards []*shard) *fleet {
	return &fleet{shards: shards, feReg: obs.NewRegistry(), client: &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 32},
		Timeout:   60 * time.Second,
	}}
}

// serve starts the shard servers and the frontend over them.
func (f *fleet) serve() error {
	var urls []string
	for i, s := range f.shards {
		if err := s.serve(i); err != nil {
			return err
		}
		urls = append(urls, s.url)
	}
	var err error
	f.url, f.fe, err = listen(serve.NewFrontend(urls, f.feReg).Handler())
	return err
}

// close stops the frontend and every shard, the shards in parallel (each
// store's Close writes a final checkpoint of its engines); calling it
// again is a no-op.
func (f *fleet) close() {
	if f.fe != nil {
		f.fe.Close()
	}
	var wg sync.WaitGroup
	for _, s := range f.shards {
		if s != nil {
			wg.Add(1)
			go func() { defer wg.Done(); s.close() }()
		}
	}
	wg.Wait()
	f.fe, f.shards = nil, nil
	f.client.CloseIdleConnections()
}

// get fetches path from the frontend and returns status and body.
func (f *fleet) get(path string) (int, []byte, error) {
	resp, err := f.client.Get(f.url + path)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// scatterSeconds is the frontend's frontend_scatter_seconds sum.
func (f *fleet) scatterSeconds() float64 {
	return f.feReg.Histogram("frontend_scatter_seconds", "", obs.DurationBuckets).Sum()
}

// chunkEvents is the slice of the feed one ingest latency sample
// covers.
const chunkEvents = 16384

// ingestFeed pushes the feed's bytes through watch.StreamMRT into every
// shard's store, one goroutine per shard as separate daemons would each
// read the feed. It returns, per shard and per chunkEvents events, how
// long that slice took to decode, journal and apply, in ms. decode and
// ingest, when non-nil, sum the time spent outside and inside
// Store.Ingest.
func (f *fleet) ingestFeed(data []byte, decode, ingest *layerClock) ([]float64, error) {
	errs := make([]error, len(f.shards))
	chunks := make([][]float64, len(f.shards))
	var wg sync.WaitGroup
	for i, s := range f.shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			chunks[i], errs[i] = s.consume(bytes.NewReader(data), decode, ingest)
		}()
	}
	wg.Wait()
	var all []float64
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		all = append(all, chunks[i]...)
	}
	return all, nil
}

// consume streams r into the shard's store until EOF, returning the
// time each chunkEvents-event slice took, in ms.
func (s *shard) consume(r io.Reader, decode, ingest *layerClock) ([]float64, error) {
	var ingestErr error
	var inside time.Duration
	var chunks []float64
	n := 0
	t0 := time.Now()
	last := t0
	_, err := watch.StreamMRT(r, feedSource, func(ev watch.Event) {
		if n++; n%chunkEvents == 0 {
			now := time.Now()
			chunks = append(chunks, float64(now.Sub(last))/float64(time.Millisecond))
			last = now
		}
		var t time.Time
		if ingest != nil {
			t = time.Now()
		}
		if err := s.store.Ingest(ev); err != nil && ingestErr == nil {
			ingestErr = err
		}
		if ingest != nil {
			d := time.Since(t)
			inside += d
			ingest.ns.Add(int64(d))
		}
	})
	if decode != nil {
		decode.ns.Add(int64(time.Since(t0) - inside))
	}
	if err != nil {
		return nil, err
	}
	return chunks, ingestErr
}

// alertsOf parses an /alerts body.
func alertsOf(body []byte) ([]watch.Alert, error) {
	var payload struct {
		Alerts []watch.Alert `json:"alerts"`
	}
	err := json.Unmarshal(body, &payload)
	return payload.Alerts, err
}

// referenceAlerts feeds data to one bare watch engine with the same
// dictionary and renders its /alerts through a serve.Server, the
// single-process view the merged fleet must match byte for byte.
func referenceAlerts(data []byte, dict *semantics.Snapshot) ([]byte, error) {
	eng := watch.NewEngine(watch.Config{Dict: dict})
	defer eng.Close()
	if _, err := watch.StreamMRT(bytes.NewReader(data), feedSource, eng.Ingest); err != nil {
		return nil, err
	}
	eng.Flush()
	srv := serve.New(serve.Options{Watch: eng, Registry: obs.NewRegistry()})
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/alerts", nil))
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("reference /alerts: status %d", rec.Code)
	}
	return rec.Body.Bytes(), nil
}

// warmDictionary folds the feed's warm-up slice into a semantics engine
// and freezes the snapshot the detectors read.
func warmDictionary(f *feed) (*semantics.Snapshot, error) {
	sem := semantics.NewEngine(semantics.Config{})
	defer sem.Close()
	n := 0
	_, err := watch.StreamMRT(bytes.NewReader(f.data[:f.offs[f.warmup]]), feedSource, func(ev watch.Event) {
		n++
		if len(ev.Communities) == 0 {
			return
		}
		sem.Ingest(semantics.Observation{Seq: uint64(n), Time: ev.Time, PeerAS: ev.PeerAS,
			Prefix: ev.Prefix, ASPath: ev.ASPath, Communities: ev.Communities})
	})
	if err != nil {
		return nil, err
	}
	return sem.Snapshot(), nil
}

// owners returns, per shard, how many feed events it owns and the
// sequence number of the last one.
func owners(data []byte) (owned []int, last []uint64, err error) {
	rm := serve.NewRangeMap(fleetShards)
	owned, last = make([]int, fleetShards), make([]uint64, fleetShards)
	err = decodeFeed(data, func(ev *feedEvent) {
		i := rm.Owner(ev.prefix.Masked())
		owned[i]++
		last[i] = ev.seq
	})
	return owned, last, err
}

// waitDurable blocks until every shard's WAL has fsynced its last owned
// event.
func (f *fleet) waitDurable(ctx context.Context, last []uint64) error {
	for i, s := range f.shards {
		for s.store.Status().WALDurableSeq < last[i] {
			select {
			case <-ctx.Done():
				return fmt.Errorf("shard %d: WAL durable at %d, want %d: %w", i, s.store.Status().WALDurableSeq, last[i], ctx.Err())
			case <-time.After(2 * time.Millisecond):
			}
		}
	}
	return nil
}

// copyDir copies a durability directory's files: with no process
// stopped and nothing closed, the copy is what a kill -9 leaves.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}
