package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/netip"
	"slices"
	"time"

	"bgpworms/internal/bgp"
	"bgpworms/internal/mrt"
)

// The detection workloads run on the benchmark's own synthetic MRT feed,
// not on gen's collector archives: its inputs stay the same across
// simulator changes, its prefixes spread over the address space the way
// a real table does (gen's plan puts every prefix on shard 0 of a
// 2-shard RangeMap), and it plants anomalies whose truth the benchmark
// recomputes from the bytes.

// feedSpec sizes one synthetic feed.
type feedSpec struct {
	prefixes int // prefix universe size
	events   int // total events (one prefix per BGP4MP record)
	// zipf > 0 draws prefixes from a Zipf law with this exponent, so a
	// small hot set carries most events; 0 draws uniformly. The law's
	// head is flattened (zipfOffset), so no single prefix, and with it
	// no single shard's batch fill rate, depends on the seed.
	zipf       float64
	peers      int
	plantEvery int           // one planted anomaly every plantEvery events
	step       time.Duration // feed-time spacing between consecutive events
	warmup     float64       // share of leading events the dictionary warms up on
}

// The planted anomaly kinds, each named by the detector it must raise.
const (
	plantBlackhole = "blackhole-onset"
	plantLeak      = "route-leak"
	plantSquat     = "community-squat"
	plantProp      = "prop-distance"
)

var plantKinds = []string{plantBlackhole, plantLeak, plantSquat, plantProp}

// plant is one planted anomaly: the event at Seq (1-based feed
// position) must raise Detector on Prefix.
type plant struct {
	Detector  string
	Prefix    netip.Prefix
	Seq       uint64
	Community string
}

// feed is a generated MRT byte stream plus its construction record.
type feed struct {
	data   []byte
	offs   []int           // offs[i] is where event i+1's record starts; offs[events] = len(data)
	due    []time.Duration // feed-time offset of each event from the first
	plants []plant
	warmup int // events in the dictionary warm-up slice
}

// feedEpoch anchors feed timestamps (the nominal month the generator
// uses too).
var feedEpoch = time.Date(2018, 4, 1, 0, 0, 0, 0, time.UTC)

// AS number plan: peers, transits and origins never overlap, and all fit
// in 16 bits so every AS can name itself in a classic community.
const (
	peerBase    = 1000
	transitBase = 3000
	transits    = 200
	originBase  = 10000
	leakBase    = 62000 // fresh origins planted route leaks announce from
)

// v4FirstOctetWeight approximates how a real IPv4 table spreads over
// the first octet: unallocated and special-use /8s carry nothing, the
// legacy and RIR blocks carry weight roughly in proportion to their
// observed prefix density (192–223 is dense with /24s).
func v4FirstOctetWeight(o int) float64 {
	switch {
	case o == 0, o == 10, o == 127, o >= 224:
		return 0
	case o < 100:
		return 1.0
	case o < 127:
		return 1.3
	case o < 173:
		return 0.9
	default:
		return 1.7
	}
}

// v4LenWeights is the prefix-length mix of a real IPv4 table (about
// 60% /24s).
var v4LenWeights = []struct {
	bits int
	w    float64
}{{24, 60}, {23, 9}, {22, 12}, {21, 5}, {20, 5}, {19, 3}, {18, 2}, {17, 1.5}, {16, 2.5}}

// zipfOffset flattens a Zipf hot set's head: rank k is drawn in
// proportion to (zipfOffset+k)^-zipf. At Zipf(1.1) over 4,000 prefixes
// the hottest prefix carries about 2% of the events and the hottest 100
// about half; with an offset of 1 the hottest alone would carry 16%.
const zipfOffset = 10

// v6Share of the universe is IPv6, under the RIR /12s.
const v6Share = 0.1

var v6Blocks = []uint16{0x2001, 0x2400, 0x2600, 0x2800, 0x2a00, 0x2c00}

type weighted struct {
	cum []float64
}

func newWeighted(ws []float64) weighted {
	c := make([]float64, len(ws))
	t := 0.0
	for i, w := range ws {
		t += w
		c[i] = t
	}
	return weighted{cum: c}
}

func (w weighted) draw(rng *rand.Rand) int {
	x := rng.Float64() * w.cum[len(w.cum)-1]
	lo, hi := 0, len(w.cum)-1
	for lo < hi {
		m := (lo + hi) / 2
		if w.cum[m] > x {
			hi = m
		} else {
			lo = m + 1
		}
	}
	return lo
}

// universe draws n distinct prefixes.
func universe(rng *rand.Rand, n int) []netip.Prefix {
	octets := make([]float64, 256)
	for o := range octets {
		octets[o] = v4FirstOctetWeight(o)
	}
	ow := newWeighted(octets)
	lens := make([]float64, len(v4LenWeights))
	for i, l := range v4LenWeights {
		lens[i] = l.w
	}
	lw := newWeighted(lens)
	seen := make(map[netip.Prefix]bool, n)
	out := make([]netip.Prefix, 0, n)
	for len(out) < n {
		var p netip.Prefix
		if rng.Float64() < v6Share {
			var a [16]byte
			blk := v6Blocks[rng.IntN(len(v6Blocks))]
			a[0], a[1] = byte(blk>>8), byte(blk)
			for i := 2; i < 6; i++ {
				a[i] = byte(rng.UintN(256))
			}
			bits := 48
			switch x := rng.Float64(); {
			case x < 0.2:
				bits = 32
			case x < 0.4:
				bits = 36 + 4*rng.IntN(3)
			}
			if blk != 0x2001 {
				a[1] |= byte(rng.UintN(16)) // spread inside the /12
			}
			p = netip.PrefixFrom(netip.AddrFrom16(a), bits).Masked()
		} else {
			a := [4]byte{byte(ow.draw(rng)), byte(rng.UintN(256)), byte(rng.UintN(256)), byte(rng.UintN(256))}
			p = netip.PrefixFrom(netip.AddrFrom4(a), v4LenWeights[lw.draw(rng)].bits).Masked()
		}
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	return out
}

// generator holds the feed under construction.
type generator struct {
	spec    feedSpec
	rng     *rand.Rand
	pfx     []netip.Prefix
	origin  []uint32
	pick    func() int
	bh      []bool // prefix carried a blackhole community already
	w       *mrt.Writer
	buf     bytes.Buffer
	f       *feed
	squats  int // planted squats so far (each names a fresh value)
	leaks   int // planted leaks so far (each from a fresh origin)
	props   int // planted long-distance tags so far
	pending int // events written
}

// generate builds the feed for spec from seed. The same seed and spec
// always give the same bytes.
func generate(spec feedSpec, seed int64) (*feed, error) {
	g := &generator{spec: spec, rng: rand.New(rand.NewPCG(uint64(seed), 0x6277_6f72_6d73)), f: &feed{}}
	g.pfx = universe(g.rng, spec.prefixes)
	nOrig := min(max(spec.prefixes/4, 64), leakBase-originBase-1)
	g.origin = make([]uint32, len(g.pfx))
	for i := range g.origin {
		g.origin[i] = originBase + uint32(g.rng.IntN(nOrig))
	}
	g.bh = make([]bool, len(g.pfx))
	if spec.zipf > 0 {
		z := rand.NewZipf(g.rng, spec.zipf, zipfOffset, uint64(len(g.pfx)-1))
		g.pick = func() int { return int(z.Uint64()) }
	} else {
		g.pick = func() int { return g.rng.IntN(len(g.pfx)) }
	}
	g.w = mrt.NewWriter(&g.buf)
	g.buf.Grow(spec.events * 90)
	kind := 0
	for g.pending < spec.events {
		if spec.plantEvery > 0 && g.pending > 0 && g.pending%spec.plantEvery == 0 && g.pending+2 <= spec.events {
			if err := g.plant(plantKinds[kind%len(plantKinds)]); err != nil {
				return nil, err
			}
			kind++
			continue
		}
		if err := g.background(); err != nil {
			return nil, err
		}
	}
	g.f.offs = append(g.f.offs, g.buf.Len())
	g.f.data = g.buf.Bytes()
	g.f.warmup = int(float64(spec.events) * spec.warmup)
	return g.f, nil
}

// upstream is the transit an origin buys from.
func upstream(origin uint32) uint32 { return transitBase + (origin*7)%transits }

// path builds the nearest-first AS path from peer to the prefix's
// origin through mids transit hops.
func (g *generator) path(peer, origin uint32, mids int) []uint32 {
	up := upstream(origin)
	p := []uint32{peer}
	for len(p) < 1+mids {
		t := transitBase + uint32(g.rng.IntN(transits))
		if t != up && !contains(p, t) {
			p = append(p, t)
		}
	}
	p = append(p, up, origin)
	if g.rng.Float64() < 0.1 {
		for n := 1 + g.rng.IntN(2); n > 0; n-- {
			p = append(p, origin) // origin prepending
		}
	}
	return p
}

func contains(p []uint32, a uint32) bool {
	for _, x := range p {
		if x == a {
			return true
		}
	}
	return false
}

// The feed's traffic make-up is calibrated against the medium world
// (mediumProfile, calibrate.go): 16% of events are withdrawals, 75% of
// announcements carry a community (the paper's "more than 75%"), and
// those carry about 2.9 communities naming about 2 ASes each, so an
// announcement averages about 2.2 communities and 1.5 ASes.
const (
	withdrawShare = 0.16
	taggedShare   = 0.75
)

// communities draws a background announcement's community set: none
// for a quarter of them, otherwise peer ingress and location tags,
// upstream informational tags, origin tags, rare upstream steering
// actions, rare on-path RTBH requests, rare off-path tags from another
// transit's vocabulary, and NO_EXPORT.
func (g *generator) communities(path []uint32, j int) bgp.CommunitySet {
	var cs bgp.CommunitySet
	if g.rng.Float64() >= taggedShare {
		return cs
	}
	peer, up, origin := uint16(path[0]), uint16(upstream(g.origin[j])), uint16(g.origin[j])
	if g.rng.Float64() < 0.8 {
		cs = cs.AddAll(bgp.C(peer, 1000+uint16(g.rng.IntN(8))))
	}
	if g.rng.Float64() < 0.6 {
		cs = cs.AddAll(bgp.C(peer, 1100+uint16(j%16)))
	}
	if g.rng.Float64() < 0.65 {
		cs = cs.AddAll(bgp.C(up, 2000+uint16(g.rng.IntN(5))))
		if g.rng.Float64() < 0.45 {
			cs = cs.AddAll(bgp.C(up, 2100+uint16(j%8)))
		}
	}
	if g.rng.Float64() < 0.45 {
		cs = cs.AddAll(bgp.C(origin, 100+uint16(j%4)))
	}
	if g.rng.Float64() < 0.05 {
		cs = cs.AddAll(bgp.C(up, 3001+uint16(g.rng.IntN(3))))
	}
	if g.rng.Float64() < 0.002 {
		cs = cs.AddAll(bgp.C(up, bgp.BlackholeValue))
		g.bh[j] = true
	}
	if g.rng.Float64() < 0.01 {
		t := uint16(transitBase + g.rng.IntN(transits))
		if !contains(path, uint32(t)) {
			cs = cs.AddAll(bgp.C(t, 1000+uint16(g.rng.IntN(8))))
		}
	}
	if g.rng.Float64() < 0.02 {
		cs = cs.AddAll(bgp.CommunityNoExport)
	}
	if len(cs) == 0 {
		cs = cs.AddAll(bgp.C(up, 2000+uint16(g.rng.IntN(5))))
	}
	return cs
}

func (g *generator) mids() int {
	x := g.rng.Float64()
	switch {
	case x < 0.55:
		return 0
	case x < 0.9:
		return 1
	default:
		return 2
	}
}

func (g *generator) peer() uint32 { return peerBase + uint32(g.rng.IntN(g.spec.peers)) }

// background writes one ordinary event: a withdrawal, or an
// announcement along the prefix's stable origin.
func (g *generator) background() error {
	j := g.pick()
	peer := g.peer()
	if g.rng.Float64() < withdrawShare {
		return g.emit(peer, g.pfx[j], nil, nil, true)
	}
	path := g.path(peer, g.origin[j], g.mids())
	return g.emit(peer, g.pfx[j], path, g.communities(path, j), false)
}

// plant writes one planted anomaly (two events for a route leak: the
// legitimate announcement, then the leaked origin).
func (g *generator) plant(kind string) error {
	j := g.pick()
	peer := g.peer()
	var path []uint32
	var cs bgp.CommunitySet
	var named bgp.Community
	switch kind {
	case plantBlackhole:
		for tries := 0; g.bh[j] && tries < 1000; tries++ {
			j = g.rng.IntN(len(g.pfx))
		}
		if g.bh[j] {
			return errors.New("feed: no prefix left without a blackhole community")
		}
		path = g.path(peer, g.origin[j], g.mids())
		named = bgp.C(uint16(upstream(g.origin[j])), bgp.BlackholeValue)
		cs = bgp.CommunitySet{named}
		g.bh[j] = true
	case plantLeak:
		legit := g.path(peer, g.origin[j], g.mids())
		if err := g.emit(peer, g.pfx[j], legit, g.communities(legit, j), false); err != nil {
			return err
		}
		g.leaks++
		path = []uint32{peer, transitBase + uint32(g.rng.IntN(transits)), leakBase + uint32(g.leaks)}
	case plantSquat:
		path = g.path(peer, g.origin[j], g.mids())
		t := uint16(transitBase + g.rng.IntN(transits))
		for contains(path, uint32(t)) {
			t = uint16(transitBase + g.rng.IntN(transits))
		}
		g.squats++
		named = bgp.C(t, 4000+uint16(g.squats%60000))
		cs = bgp.CommunitySet{named}
	case plantProp:
		path = g.path(peer, g.origin[j], 3) // origin five hops out
		g.props++
		named = bgp.C(uint16(g.origin[j]), 5000+uint16(g.props%60000))
		cs = bgp.CommunitySet{named}
	}
	if err := g.emit(peer, g.pfx[j], path, cs, false); err != nil {
		return err
	}
	p := plant{Detector: kind, Prefix: g.pfx[j], Seq: uint64(g.pending)}
	if kind != plantLeak {
		p.Community = named.String()
	}
	g.f.plants = append(g.f.plants, p)
	return nil
}

// emit appends one BGP4MP_ET update record.
func (g *generator) emit(peer uint32, p netip.Prefix, path []uint32, cs bgp.CommunitySet, withdraw bool) error {
	due := time.Duration(g.pending) * g.spec.step
	g.f.offs = append(g.f.offs, g.buf.Len())
	g.f.due = append(g.f.due, due)
	g.pending++
	upd := &bgp.Update{}
	v4 := p.Addr().Is4()
	switch {
	case withdraw && v4:
		upd.Withdrawn = []netip.Prefix{p}
	case withdraw:
		upd.Attrs.MPUnreachNLRI = []netip.Prefix{p}
	default:
		upd.Attrs.Origin = bgp.OriginIGP
		upd.Attrs.ASPath = bgp.Path(path...)
		upd.Attrs.Communities = cs
		if v4 {
			upd.Attrs.NextHop = netip.AddrFrom4([4]byte{192, 0, 2, byte(peer)})
			upd.NLRI = []netip.Prefix{p}
		} else {
			upd.Attrs.MPReachNextHop = netip.MustParseAddr("2001:db8::1")
			upd.Attrs.MPReachNLRI = []netip.Prefix{p}
		}
	}
	return g.w.Write(&mrt.BGP4MPMessage{
		Timestamp:    feedEpoch.Add(due),
		ExtendedTime: true,
		PeerAS:       peer,
		LocalAS:      65000,
		PeerIP:       netip.AddrFrom4([4]byte{192, 0, 2, byte(peer)}),
		LocalIP:      netip.AddrFrom4([4]byte{192, 0, 2, 254}),
		Message:      upd,
	})
}

// feedEvent is one event as the truth recomputation reads it back.
type feedEvent struct {
	seq      uint64
	time     time.Time
	prefix   netip.Prefix
	path     []uint32
	comms    bgp.CommunitySet
	withdraw bool
}

// decodeFeed reads a feed's bytes back into events, in feed order.
func decodeFeed(data []byte, fn func(ev *feedEvent)) error {
	r := mrt.NewReader(bytes.NewReader(data))
	var seq uint64
	for {
		rec, err := r.Next()
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return err
		}
		msg, ok := rec.(*mrt.BGP4MPMessage)
		if !ok {
			continue
		}
		upd, ok := msg.Message.(*bgp.Update)
		if !ok {
			continue
		}
		for _, p := range upd.AllAnnounced() {
			seq++
			fn(&feedEvent{seq: seq, time: msg.Timestamp, prefix: p, path: upd.Attrs.ASPath.Sequence(), comms: upd.Attrs.Communities})
		}
		for _, p := range upd.AllWithdrawn() {
			seq++
			fn(&feedEvent{seq: seq, time: msg.Timestamp, prefix: p, withdraw: true})
		}
	}
}

// truth is what the feed's bytes alone say the detectors must do.
type truth struct {
	// must holds every (detector, prefix, seq, community) alert the
	// default detectors are bound to raise, by conditions strictly
	// stronger than theirs: a community never before seen on the
	// prefix, a blackhole community on a prefix that never carried one,
	// an origin the prefix never had right after an announcement inside
	// the window.
	must map[string]bool
	// blackholed are the prefixes whose feed carried a blackhole
	// community; blackhole-onset may fire on no other.
	blackholed map[netip.Prefix]bool
	events     int
}

func alertKey(detector string, p netip.Prefix, seq uint64, community string) string {
	return fmt.Sprintf("%s|%s|%d|%s", detector, p, seq, community)
}

// travelWindow is the watch engine's default time horizon, less a
// margin: a route-leak truth needs the previous event still windowed.
const travelWindow = 14 * time.Minute

// propThreshold is prop-distance's default hop threshold.
const propThreshold = 3

type prefixHistory struct {
	comms   []bgp.Community // every community seen on the prefix
	origins []uint32        // every origin seen on the prefix
	hadBH   bool
	last    feedEvent // the previous event (zero before the first)
	seen    bool
}

// recomputeTruth derives the truth from feed bytes alone.
func recomputeTruth(data []byte) (*truth, error) {
	t := &truth{must: map[string]bool{}, blackholed: map[netip.Prefix]bool{}}
	hist := map[netip.Prefix]*prefixHistory{}
	err := decodeFeed(data, func(ev *feedEvent) {
		t.events++
		p := ev.prefix.Masked()
		h := hist[p]
		if h == nil {
			h = &prefixHistory{}
			hist[p] = h
		}
		defer func() { h.last, h.seen = *ev, true }()
		if ev.withdraw {
			return
		}
		stripped := bgp.Path(ev.path...).StripPrepending()
		for _, c := range ev.comms {
			if c.IsBlackhole() {
				t.blackholed[p] = true
				if !h.hadBH {
					t.must[alertKey(plantBlackhole, p, ev.seq, c.String())] = true
				}
				break
			}
		}
		for _, c := range ev.comms {
			if c.IsWellKnown() || slices.Contains(h.comms, c) {
				continue
			}
			if !contains(ev.path, uint32(c.ASN())) {
				t.must[alertKey(plantSquat, p, ev.seq, c.String())] = true
			}
			if hops := indexOf(stripped, uint32(c.ASN())); hops > propThreshold {
				t.must[alertKey(plantProp, p, ev.seq, c.String())] = true
			}
		}
		if len(ev.path) > 0 {
			o := ev.path[len(ev.path)-1]
			if !slices.Contains(h.origins, o) && h.seen && !h.last.withdraw && len(h.last.path) > 0 &&
				ev.time.Sub(h.last.time) < travelWindow {
				t.must[alertKey(plantLeak, p, ev.seq, "")] = true
			}
			if !slices.Contains(h.origins, o) {
				h.origins = append(h.origins, o)
			}
		}
		for _, c := range ev.comms {
			if !slices.Contains(h.comms, c) {
				h.comms = append(h.comms, c)
			}
			if c.IsBlackhole() {
				h.hadBH = true
			}
		}
	})
	return t, err
}

func indexOf(p []uint32, a uint32) int {
	for i, x := range p {
		if x == a {
			return i
		}
	}
	return math.MinInt
}
