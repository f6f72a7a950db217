package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"bgpworms/internal/core"
	"bgpworms/internal/gen"
	"bgpworms/internal/obs"
	"bgpworms/internal/serve"
	"bgpworms/internal/watch"
)

// tinySuite is attack-suite.json's grid on the tiny preset, with
// blackhole-squatting on the tiny seeds detectors.json pins for its
// dictionary gate.
var tinySuite = func() []byte {
	var grid map[string]any
	if err := json.Unmarshal(attackSuite, &grid); err != nil {
		panic(err)
	}
	grid["defaults"].(map[string]any)["scales"] = []string{"tiny"}
	for _, e := range grid["entries"].([]any) {
		if e := e.(map[string]any); e["scenario"] == "blackhole-squatting" {
			e["seeds"] = []int{1, 3, 8}
		}
	}
	out, err := json.Marshal(grid)
	if err != nil {
		panic(err)
	}
	return out
}()

var tinyBulk = feedSpec{prefixes: 2000, events: 8000, peers: 8, plantEvery: 100, step: 4 * time.Millisecond, warmup: 0.2}

var tinyScale = scale{paper: gen.Tiny(), suite: tinySuite, bulk: tinyBulk}

func tinyRunner(t *testing.T) *runner {
	return &runner{seed: 7, seconds: 2 * time.Second, workdir: t.TempDir(), scale: tinyScale,
		tr: obs.NewTrace("selftest"), layer: map[string]float64{}, layers: map[string][]float64{}}
}

// Every workload runs end to end at a tiny size, traced, with no failed
// operation beyond the named fault.
func TestWorkloadsAtTinySize(t *testing.T) {
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			r := tinyRunner(t)
			if err := wl.run(r); err != nil {
				t.Fatal(err)
			}
			if r.attempted == 0 || len(r.results) == 0 || len(r.setups) < minSetups {
				t.Fatalf("attempted %d, %d results, %d set-ups", r.attempted, len(r.results), len(r.setups))
			}
			if r.failed != r.knownFaults {
				t.Fatalf("%d failed operations, %d of them the named fault", r.failed, r.knownFaults)
			}
		})
	}
}

// detectFixture is a tiny feed with its truth and single-engine
// reference.
func detectFixture(t *testing.T) *detectInputs {
	t.Helper()
	f, err := generate(tinyBulk, 3)
	if err != nil {
		t.Fatal(err)
	}
	dict, err := warmDictionary(f)
	if err != nil {
		t.Fatal(err)
	}
	in, err := newDetectInputs(f, dict)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestCheckCatchesDroppedAlert(t *testing.T) {
	in := detectFixture(t)
	alerts, err := alertsOf(in.ref)
	if err != nil {
		t.Fatal(err)
	}
	r := &runner{}
	checkTruth(r, "test", alerts, in.truth)
	checkSame(r, "test", http.StatusOK, in.ref, in.ref)
	if r.failed != 0 {
		t.Fatalf("intact alerts: %d failed checks", r.failed)
	}
	p := in.feed.plants[0]
	var dropped []watch.Alert
	for _, a := range alerts {
		if a.Detector == p.Detector && a.Seq == p.Seq {
			continue
		}
		dropped = append(dropped, a)
	}
	if len(dropped) != len(alerts)-1 {
		t.Fatalf("planted alert found %d times", len(alerts)-len(dropped))
	}
	if intact := renderAlerts(t, alerts); !bytes.Equal(intact, in.ref) {
		t.Fatal("re-rendered alerts differ from the served body")
	}
	body := renderAlerts(t, dropped)
	r = &runner{}
	checkTruth(r, "test", dropped, in.truth)
	checkSame(r, "test", http.StatusOK, body, in.ref)
	if r.failed != 2 {
		t.Fatalf("dropped alert: %d failed checks, want 2", r.failed)
	}
}

// renderAlerts renders alerts in the /alerts response shape.
func renderAlerts(t *testing.T, alerts []watch.Alert) []byte {
	body, err := json.MarshalIndent(struct {
		Count  int           `json:"count"`
		Alerts []watch.Alert `json:"alerts"`
	}{len(alerts), alerts}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(body, '\n')
}

func TestCheckCatchesAlteredFigureRow(t *testing.T) {
	w, err := gen.Build(gen.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.RunChurn(); err != nil {
		t.Fatal(err)
	}
	known := w.Registry.All()
	mem := core.NewPipeline(0).Analyze(core.FromCollectors(w.Collectors), known)
	acc := core.NewAccumulator(known)
	records := 0
	for _, c := range w.Collectors {
		var buf bytes.Buffer
		if _, err := c.WriteUpdatesMRT(&buf); err != nil {
			t.Fatal(err)
		}
		records += countBGP4MPUpdates(buf.Bytes())
		meta, err := core.StreamMRTUpdates(string(c.Platform), c.Name, &buf, func(u *core.Update) error {
			acc.Add(u)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		acc.AddCollector(meta)
	}
	wire := acc.Analysis(core.NewPipeline(0))
	r := &runner{}
	checkPaper(r, mem, wire, records)
	if r.failed != r.knownFaults {
		t.Fatalf("intact figures: %d failed, %d known", r.failed, r.knownFaults)
	}
	wire.Fig4a[0].WithComm++
	r2 := &runner{}
	checkPaper(r2, mem, wire, records)
	if r2.failed-r2.knownFaults != 1 {
		t.Fatalf("altered Fig 4a row: %d failed beyond the named fault, want 1", r2.failed-r2.knownFaults)
	}
	r3 := &runner{}
	checkPaper(r3, mem, mem, records+1)
	if r3.failed != 1 {
		t.Fatalf("miscounted archive: %d failed, want 1", r3.failed)
	}
}

// ingestInto feeds data to every shard's store, dropping the event at
// seq skip (0 = none) on shard 0, then flushes.
func ingestInto(t *testing.T, fl *fleet, data []byte, skip int) {
	t.Helper()
	for i, s := range fl.shards {
		n := 0
		if _, err := watch.StreamMRT(bytes.NewReader(data), feedSource, func(ev watch.Event) {
			if n++; i == 0 && n == skip {
				return
			}
			if err := s.store.Ingest(ev); err != nil {
				t.Error(err)
			}
		}); err != nil {
			t.Fatal(err)
		}
		s.flush()
	}
}

func TestCheckCatchesLostEvent(t *testing.T) {
	in := detectFixture(t)
	dir := t.TempDir()
	fl, err := startFleet([]string{filepath.Join(dir, "a"), filepath.Join(dir, "b")}, in.dict)
	if err != nil {
		t.Fatal(err)
	}
	defer fl.close()
	ingestInto(t, fl, in.feed.data, 10)
	r := &runner{}
	checkShardCounts(r, fl, in)
	if r.failed != 1 {
		t.Fatalf("lost event: %d failed checks, want 1", r.failed)
	}
}

// dropWALRecord rewrites a WAL directory's segments without the record
// carrying seq.
func dropWALRecord(t *testing.T, dir string, seq uint64) bool {
	t.Helper()
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	for _, seg := range segs {
		data, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		const segHeader, frameHeader = 16, 16
		out := append([]byte(nil), data[:segHeader]...)
		found := false
		for rest := data[segHeader:]; len(rest) >= frameHeader; {
			n := frameHeader + int(binary.BigEndian.Uint32(rest[0:4]))
			if binary.BigEndian.Uint64(rest[8:16]) == seq {
				found = true
			} else {
				out = append(out, rest[:n]...)
			}
			rest = rest[n:]
		}
		if found {
			if err := os.WriteFile(seg, out, 0o644); err != nil {
				t.Fatal(err)
			}
			return true
		}
	}
	return false
}

func TestCheckCatchesSkippedWALRecord(t *testing.T) {
	in := detectFixture(t)
	dir := t.TempDir()
	dirs := []string{filepath.Join(dir, "a"), filepath.Join(dir, "b")}
	fl, err := startFleet(dirs, in.dict)
	if err != nil {
		t.Fatal(err)
	}
	ingestInto(t, fl, in.feed.data, 0)
	_, merged, err := fl.get("/alerts")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := fl.waitDurable(ctx, in.last); err != nil {
		t.Fatal(err)
	}
	var images []string
	for i, d := range dirs {
		img := filepath.Join(dir, "image", string(rune('a'+i)))
		if err := copyDir(d, img); err != nil {
			t.Fatal(err)
		}
		images = append(images, img)
	}
	fl.close()
	p := in.feed.plants[len(in.feed.plants)/2]
	owner := serve.NewRangeMap(fleetShards).Owner(p.Prefix)
	if !dropWALRecord(t, images[owner], p.Seq) {
		t.Fatalf("record %d not in shard %d's WAL", p.Seq, owner)
	}
	rec := make([]*shard, len(images))
	for i, img := range images {
		if rec[i], err = openShard(img, i, in.dict); err != nil {
			t.Fatal(err)
		}
		rec[i].flush()
	}
	rf := newFleet(rec)
	defer rf.close()
	if err := rf.serve(); err != nil {
		t.Fatal(err)
	}
	code, body, err := rf.get("/alerts")
	if err != nil {
		t.Fatal(err)
	}
	r := &runner{}
	checkSame(r, "recovered", code, body, merged)
	if r.failed != 1 {
		t.Fatalf("skipped WAL record: %d failed checks, want 1", r.failed)
	}
}

func TestFeedIsSeeded(t *testing.T) {
	a, err := generate(tinyBulk, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := generate(tinyBulk, 1)
	c, _ := generate(tinyBulk, 2)
	if !bytes.Equal(a.data, b.data) {
		t.Fatal("same seed, different feed bytes")
	}
	if bytes.Equal(a.data, c.data) {
		t.Fatal("different seeds, same feed bytes")
	}
}

// The truth comes from the bytes alone: a copy of the feed's bytes,
// without the generator's records, yields a truth that holds every
// planted anomaly and counts every event.
func TestTruthFromFeedBytesAlone(t *testing.T) {
	f, err := generate(tinyBulk, 5)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := recomputeTruth(bytes.Clone(f.data))
	if err != nil {
		t.Fatal(err)
	}
	if tr.events != len(f.due) {
		t.Fatalf("truth counts %d events, feed has %d", tr.events, len(f.due))
	}
	if len(f.plants) == 0 {
		t.Fatal("no planted anomalies")
	}
	for _, p := range f.plants {
		if !tr.must[alertKey(p.Detector, p.Prefix, p.Seq, p.Community)] {
			t.Errorf("planted %+v missing from the recomputed truth", p)
		}
		if p.Detector == plantBlackhole && !tr.blackholed[p.Prefix] {
			t.Errorf("planted blackhole on %s not in the blackholed set", p.Prefix)
		}
	}
}

// The synthetic feed spreads over both shards of a 2-shard RangeMap.
func TestFeedSpreadsOverShards(t *testing.T) {
	f, err := generate(tinyBulk, 1)
	if err != nil {
		t.Fatal(err)
	}
	owned, _, err := owners(f.data)
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range owned {
		if share := float64(n) / float64(len(f.due)); share < 0.25 {
			t.Fatalf("shard %d owns %.2f of the feed", i, share)
		}
	}
}

// The feed's traffic make-up stays within profileTolerance of the
// medium world's (calibrate.go): shares absolute, means relative.
func TestFeedMatchesMediumProfile(t *testing.T) {
	f, err := generate(bulkSpec, 1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := feedProfile(f)
	if err != nil {
		t.Fatal(err)
	}
	want := mediumProfile
	t.Logf("feed: %v\nmedium: %v", got, want)
	for _, c := range []struct {
		name      string
		got, want float64
		relative  bool
	}{
		{"withdrawal share", got.WithdrawShare, want.WithdrawShare, false},
		{"share with communities", got.CommunityShare, want.CommunityShare, false},
		{"communities per announcement", got.CommsMean, want.CommsMean, true},
		{"community ASes per announcement", got.ASesMean, want.ASesMean, true},
	} {
		d := math.Abs(c.got - c.want)
		if c.relative {
			d /= c.want
		}
		if d > profileTolerance {
			t.Errorf("%s: feed %.4f, medium world %.4f", c.name, c.got, c.want)
		}
	}
}
