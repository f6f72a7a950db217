package main

import (
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"sync"
	"time"
)

// Open-loop settings of detect-live: the feed rate, the query rate, and
// how often a visibility probe polls.
const (
	liveRate      = 2000 // feed events per second
	liveQueryRate = 50   // frontend queries per second
	liveWorkers   = 4    // query clients
	probeEvery    = 10 * time.Millisecond
	probeTimeout  = 10 * time.Second
	heartbeat     = 500 * time.Millisecond // wormwatchd's flush heartbeat
	queryLeadIn   = time.Second
	// liveSetups is how many set-up samples a detect-live run takes: one
	// lasts about 60 ms, so a median of fifteen.
	liveSetups = 15
)

// liveSpec is detect-live's feed for a run of the given length: a
// 4,000-prefix hot set drawn Zipf(1.1) with a flattened head
// (zipfOffset), so the hottest windows fill and churn, one planted anomaly every 50 events (40 a second), stamped
// with its due time.
func liveSpec(seconds time.Duration) feedSpec {
	return feedSpec{
		prefixes:   4000,
		events:     int(seconds.Seconds() * liveRate),
		zipf:       1.1,
		peers:      16,
		plantEvery: 50,
		step:       time.Second / liveRate,
		warmup:     0.1,
	}
}

// liveRoutes is the query mix, cycled in order: half /prefix, a fifth
// each /stats and /dict/stats, a tenth the merged /alerts.
var liveRoutes = []string{"prefix", "stats", "prefix", "dict-stats", "prefix", "alerts", "prefix", "stats", "prefix", "dict-stats"}

// queue is an unbounded byte pipe: the open-loop generator appends
// without ever blocking, the shard's decoder reads.
type queue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	chunks [][]byte
	closed bool
}

func newQueue() *queue {
	q := &queue{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

func (q *queue) push(b []byte) {
	q.mu.Lock()
	q.chunks = append(q.chunks, b)
	q.mu.Unlock()
	q.cond.Signal()
}

func (q *queue) close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.cond.Broadcast()
}

func (q *queue) Read(p []byte) (int, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.chunks) == 0 && !q.closed {
		q.cond.Wait()
	}
	if len(q.chunks) == 0 {
		return 0, io.EOF
	}
	n := copy(p, q.chunks[0])
	if n == len(q.chunks[0]) {
		q.chunks = q.chunks[1:]
	} else {
		q.chunks[0] = q.chunks[0][n:]
	}
	return n, nil
}

// runLive is detect-live: one round per run, the open loop lasting the
// run's length.
func runLive(r *runner) error {
	spec := liveSpec(r.seconds)
	fl, fd, dict, err := detectSetup(r, spec, 0)
	if err != nil {
		return err
	}
	in, err := newDetectInputs(fd, dict)
	if err == nil {
		err = liveRound(r, in, fl)
	}
	fl.close()
	removeRound(r.workdir, 0)
	if err != nil {
		return err
	}
	return topUpDetectSetups(r, spec, 1, liveSetups)
}

type query struct {
	due   time.Duration
	route string
	path  string
}

func liveRound(r *runner, in *detectInputs, fl *fleet) error {
	f := in.feed
	n := len(f.due)
	root := r.tr.Start("live-round")

	// Shard consumers: each decodes its own copy of the stream.
	queues := make([]*queue, len(fl.shards))
	consumeErr := make([]error, len(fl.shards))
	var consumers sync.WaitGroup
	for i, s := range fl.shards {
		queues[i] = newQueue()
		consumers.Add(1)
		go func() {
			defer consumers.Done()
			_, consumeErr[i] = s.consume(queues[i], nil, nil)
		}()
	}
	// wormwatchd's heartbeat, and a sampler of the engines' backlog.
	stop := make(chan struct{})
	var bg sync.WaitGroup
	var pendingMax uint64
	bg.Add(1)
	go func() {
		defer bg.Done()
		beat := time.NewTicker(heartbeat)
		defer beat.Stop()
		sample := time.NewTicker(50 * time.Millisecond)
		defer sample.Stop()
		for {
			select {
			case <-stop:
				return
			case <-beat.C:
				for _, s := range fl.shards {
					s.heartbeat()
				}
			case <-sample.C:
				for _, s := range fl.shards {
					pendingMax = max(pendingMax, s.eng.Stats().Pending)
				}
			}
		}
	}()

	// The query schedule and its client pool. Queries start after a
	// lead-in, and /prefix asks only for prefixes whose first event was
	// due at least the lead-in earlier, so every target is tracked.
	var queries []query
	first := firstDue(f)
	for i := 0; ; i++ {
		q := query{due: queryLeadIn + time.Duration(i)*time.Second/liveQueryRate, route: liveRoutes[i%len(liveRoutes)]}
		if q.due >= r.seconds {
			break
		}
		switch q.route {
		case "prefix":
			known := sort.Search(len(first), func(k int) bool { return first[k].due > q.due-queryLeadIn })
			q.path = "/prefix/" + url.PathEscape(first[i%known].prefix)
		case "stats":
			q.path = "/stats"
		case "dict-stats":
			q.path = "/dict/stats"
		case "alerts":
			q.path = "/alerts"
		}
		queries = append(queries, q)
	}
	type answer struct {
		route      string
		code       int
		err        error
		ms, servMS float64
	}
	answers := make([]answer, len(queries))
	work := make(chan int, len(queries)) // sized to every send: the dispatcher never blocks
	var clients sync.WaitGroup

	// Visibility probes, one per planted anomaly, started at its due time.
	lags := make([]float64, len(f.plants))
	seen := make([]bool, len(f.plants))
	var probes sync.WaitGroup

	start := time.Now()
	for w := 0; w < liveWorkers; w++ {
		clients.Add(1)
		go func() {
			defer clients.Done()
			for i := range work {
				q := queries[i]
				t := time.Now()
				code, _, err := fl.get(q.path)
				answers[i] = answer{route: q.route, code: code, err: err,
					ms:     float64(time.Since(start.Add(q.due))) / float64(time.Millisecond),
					servMS: float64(time.Since(t)) / float64(time.Millisecond)}
			}
		}()
	}
	go func() { // the query dispatcher
		for i, q := range queries {
			time.Sleep(time.Until(start.Add(q.due)))
			work <- i
		}
		close(work)
	}()

	// The feed generator: every event whose due time has come goes to
	// both shards' queues; it never waits on the fleet.
	var late []float64
	plantAt := map[uint64]int{}
	for i, p := range f.plants {
		plantAt[p.Seq] = i
	}
	next := 0
	for next < n {
		now := time.Since(start)
		hi := next
		for hi < n && f.due[hi] <= now {
			hi++
		}
		if hi > next {
			chunk := f.data[f.offs[next]:f.offs[hi]]
			for _, q := range queues {
				q.push(chunk)
			}
			pushed := time.Since(start)
			for k := next; k < hi; k++ {
				late = append(late, float64(pushed-f.due[k])/float64(time.Millisecond))
				if pi, ok := plantAt[uint64(k+1)]; ok {
					probes.Add(1)
					go func() {
						defer probes.Done()
						lags[pi], seen[pi] = probe(fl, f.plants[pi], start.Add(f.due[k]))
					}()
				}
			}
			next = hi
		}
		time.Sleep(time.Millisecond)
	}
	feedEnd := time.Since(start)
	// The fleet's pace: the events both engines had processed by the time
	// the generator sent the last one. It falls below the feed rate only
	// when the fleet falls behind.
	var processed uint64
	for _, s := range fl.shards {
		processed += s.eng.Stats().Processed
	}
	for _, q := range queues {
		q.close()
	}
	consumers.Wait()
	probes.Wait()
	clients.Wait()
	close(stop)
	bg.Wait()
	for _, s := range fl.shards {
		s.flush()
	}
	root.End()
	for i, err := range consumeErr {
		if err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}

	// Results.
	var lagMS []float64
	for i, p := range f.plants {
		r.check(seen[i], "detect-live: planted %s on %s (seq %d) never became visible", p.Detector, p.Prefix, p.Seq)
		if seen[i] {
			lagMS = append(lagMS, lags[i])
		}
	}
	byRoute := map[string][]float64{}
	var queryMS, prefixMS []float64
	for i, a := range answers {
		r.check(a.err == nil && (a.code == http.StatusOK || a.code == http.StatusNotModified),
			"detect-live: %s answered %d (%v)", queries[i].path, a.code, a.err)
		queryMS = append(queryMS, a.ms)
		if a.route == "prefix" {
			prefixMS = append(prefixMS, a.ms)
		}
		byRoute[a.route] = append(byRoute[a.route], a.servMS)
	}
	// result_s is a /prefix lookup's latency: the median of the whole mix
	// would sit on the boundary between routes of different cost.
	r.results = append(r.results, median(prefixMS)/1000)
	r.latencies = append(r.latencies, lagMS...)
	r.rates = append(r.rates, float64(processed)/feedEnd.Seconds())
	fmt.Printf("detect-live: %d events in %.2fs, %d queries (p50 %.2fms, p95 %.2fms; /prefix p50 %.2fms), %d probes (alert lag p50 %.1fms, p95 %.1fms), generator late p95 %.2fms\n",
		n, feedEnd.Seconds(), len(queries), median(queryMS), quantile(queryMS, 0.95), median(prefixMS),
		len(f.plants), median(lagMS), quantile(lagMS, 0.95), quantile(late, 0.95))

	code, merged, err := fl.get("/alerts")
	if err != nil {
		return err
	}
	checkSame(r, "detect-live: merged /alerts vs the single engine's", code, merged, in.ref)
	checkShardCounts(r, fl, in)
	alerts, err := alertsOf(merged)
	if err != nil {
		return err
	}
	checkTruth(r, "detect-live", alerts, in.truth)

	r.setLayer("serve.prefix_p50_ms", median(byRoute["prefix"]))
	r.setLayer("serve.alerts_p50_ms", median(byRoute["alerts"]))
	r.setLayer("serve.stats_p50_ms", median(byRoute["stats"]))
	r.setLayer("serve.dict_stats_p50_ms", median(byRoute["dict-stats"]))
	r.setLayer("watch.pending_max", float64(pendingMax))
	r.setLayer("load.late_p95_ms", quantile(late, 0.95))
	r.setLayer("load.query_p95_ms", quantile(queryMS, 0.95))
	r.setLayer("watch.alerts", float64(len(alerts)))
	r.endRound()
	return nil
}

// probe polls the frontend's /prefix/{p} until p's alert shows, and
// returns how long after due that was.
func probe(fl *fleet, p plant, due time.Time) (float64, bool) {
	path := "/prefix/" + url.PathEscape(p.Prefix.String())
	for time.Since(due) < probeTimeout {
		code, body, err := fl.get(path)
		if err == nil && code == http.StatusOK && prefixHasAlert(body, p) {
			return float64(time.Since(due)) / float64(time.Millisecond), true
		}
		time.Sleep(probeEvery)
	}
	return 0, false
}

// firstDue lists the feed's prefixes with the due time of their first
// event, in due order.
func firstDue(f *feed) []struct {
	prefix string
	due    time.Duration
} {
	var out []struct {
		prefix string
		due    time.Duration
	}
	seen := map[string]bool{}
	_ = decodeFeed(f.data, func(ev *feedEvent) {
		s := ev.prefix.String()
		if !seen[s] {
			seen[s] = true
			out = append(out, struct {
				prefix string
				due    time.Duration
			}{s, f.due[ev.seq-1]})
		}
	})
	return out
}
