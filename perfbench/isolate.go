package main

import (
	"bytes"
	"path/filepath"
	"time"

	"bgpworms/internal/durable"
	"bgpworms/internal/semantics"
	"bgpworms/internal/watch"
)

// isolateLayers runs detect-bulk's feed through one layer at a time
// (traced runs only): decode into a discarding sink, WAL append of the
// encoded events, one bare watch engine fed from a single goroutine
// (the single-threaded baseline), and the semantics fold alone.
func isolateLayers(r *runner, in *detectInputs) error {
	root := r.tr.Start("layer isolation")
	defer root.End()
	data := in.feed.data

	sp := root.Child("mrt decode -> discard")
	var events []watch.Event
	t0 := time.Now()
	n, err := watch.StreamMRT(bytes.NewReader(data), feedSource, func(watch.Event) {})
	if err != nil {
		return err
	}
	r.setLayer("mrt.decode_events_per_s", float64(n)/secondsSince(t0))
	sp.End()
	if _, err := watch.StreamMRT(bytes.NewReader(data), feedSource, func(ev watch.Event) {
		ev.Seq = uint64(len(events) + 1)
		events = append(events, ev)
	}); err != nil {
		return err
	}

	sp = root.Child("durable WAL append")
	payloads := make([][]byte, len(events))
	size := 0
	for i := range events {
		payloads[i] = durable.EncodeEvent(nil, &events[i])
		size += len(payloads[i])
	}
	wal, _, err := durable.OpenWAL(filepath.Join(r.workdir, "isolated-wal"), durable.WALOptions{})
	if err != nil {
		return err
	}
	t0 = time.Now()
	for i, p := range payloads {
		if err := wal.Append(uint64(i+1), p); err != nil {
			wal.Close()
			return err
		}
	}
	if err := wal.Sync(); err != nil {
		wal.Close()
		return err
	}
	r.setLayer("durable.wal_append_mb_per_s", float64(size)/1e6/secondsSince(t0))
	if err := wal.Close(); err != nil {
		return err
	}
	sp.End()

	sp = root.Child("bare watch engine, one feeding goroutine")
	eng := watch.NewEngine(watch.Config{Dict: in.dict})
	t0 = time.Now()
	for _, ev := range events {
		eng.Ingest(ev)
	}
	eng.Flush()
	r.setLayer("watch.bare_events_per_s", float64(len(events))/secondsSince(t0))
	eng.Close()
	sp.End()

	sp = root.Child("semantics fold alone")
	obs := make([]semantics.Observation, 0, len(events))
	for _, ev := range events {
		if len(ev.Communities) > 0 {
			obs = append(obs, semantics.Observation{Seq: ev.Seq, Time: ev.Time, PeerAS: ev.PeerAS,
				Prefix: ev.Prefix, ASPath: ev.ASPath, Communities: ev.Communities})
		}
	}
	sem := semantics.NewEngine(semantics.Config{})
	t0 = time.Now()
	for _, ob := range obs {
		sem.Ingest(ob)
	}
	sem.Flush()
	r.setLayer("semantics.obs_per_s", float64(len(obs))/secondsSince(t0))
	sem.Close()
	sp.End()
	return nil
}
