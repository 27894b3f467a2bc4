package livenet

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"continustreaming/internal/sim"
)

// ShapeProfile describes the WAN conditions applied to every link this
// node sends over: a fixed one-way latency, uniform jitter around it,
// independent per-datagram loss, a reorder probability (a reordered
// datagram skips the latency queue, netem-style), and a token-bucket
// bandwidth cap. The zero profile shapes nothing.
//
// Shaping is egress-side: every (src, dst) link is shaped once, where
// the datagram enters the network. The decisions are drawn from a
// per-link RNG seeded from (shape seed, src, dst), so a fixed seed
// replays the exact same drop/delay sequence for the same sequence of
// sends — the property the determinism tests pin and the CI shaped
// scenarios rely on to make a flake replayable.
type ShapeProfile struct {
	// Latency is the fixed one-way delay added to every datagram.
	Latency time.Duration
	// Jitter spreads the delay uniformly over [Latency-Jitter,
	// Latency+Jitter] (clamped at zero).
	Jitter time.Duration
	// Loss is the per-datagram drop probability in [0, 1].
	Loss float64
	// Reorder is the probability a delayed datagram is instead sent
	// with (almost) no latency, overtaking in-flight predecessors —
	// meaningful only with Latency > 0.
	Reorder float64
	// Rate caps the link's bandwidth in bytes per second via a token
	// bucket of Burst bytes (0 = uncapped). Datagrams over budget are
	// delayed until tokens accrue, modelling a drained uplink queue.
	Rate int64
	// Burst is the token bucket depth in bytes; 0 defaults to the
	// larger of 4 datagrams' worth and 1/20 s of Rate.
	Burst int64
}

// IsZero reports whether the profile shapes anything at all.
func (p ShapeProfile) IsZero() bool {
	return p.Latency == 0 && p.Jitter == 0 && p.Loss == 0 && p.Reorder == 0 && p.Rate == 0
}

// burstBytes resolves the token bucket depth.
func (p ShapeProfile) burstBytes() int64 {
	if p.Burst > 0 {
		return p.Burst
	}
	b := int64(4 * maxFrame)
	if r := p.Rate / 20; r > b {
		b = r
	}
	return b
}

// validate rejects profiles the shaper cannot honour.
func (p ShapeProfile) validate() error {
	if p.Latency < 0 || p.Jitter < 0 || p.Rate < 0 || p.Burst < 0 {
		return fmt.Errorf("livenet: negative shaping parameter in %+v", p)
	}
	if p.Loss < 0 || p.Loss > 1 {
		return fmt.Errorf("livenet: loss probability %v outside [0, 1]", p.Loss)
	}
	if p.Reorder < 0 || p.Reorder > 1 {
		return fmt.Errorf("livenet: reorder probability %v outside [0, 1]", p.Reorder)
	}
	return nil
}

// ParseShapeProfile reads the flag/manifest form of a profile: a
// comma-separated key=value list, e.g.
//
//	"loss=2%,latency=50ms,jitter=20ms,rate=1mbit,reorder=1%"
//
// Keys: latency/lat and jitter/jit (Go durations), loss and reorder
// (probabilities, "0.02" or "2%"), rate (bytes/sec, with optional
// kbit/mbit/kbps/mbps suffixes), burst (bytes). The empty string is the
// zero profile (no shaping).
func ParseShapeProfile(s string) (ShapeProfile, error) {
	var p ShapeProfile
	s = strings.TrimSpace(s)
	if s == "" {
		return p, nil
	}
	for _, field := range strings.Split(s, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(field), "=")
		if !ok {
			return p, fmt.Errorf("livenet: shape field %q is not key=value", field)
		}
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		var err error
		switch key {
		case "latency", "lat":
			p.Latency, err = time.ParseDuration(val)
		case "jitter", "jit":
			p.Jitter, err = time.ParseDuration(val)
		case "loss":
			p.Loss, err = parseProbability(val)
		case "reorder":
			p.Reorder, err = parseProbability(val)
		case "rate":
			p.Rate, err = parseRate(val)
		case "burst":
			p.Burst, err = strconv.ParseInt(val, 10, 64)
		default:
			return p, fmt.Errorf("livenet: unknown shape key %q", key)
		}
		if err != nil {
			return p, fmt.Errorf("livenet: shape field %q: %v", field, err)
		}
	}
	if err := p.validate(); err != nil {
		return ShapeProfile{}, err
	}
	return p, nil
}

// parseProbability reads "0.02" or "2%".
func parseProbability(s string) (float64, error) {
	if pct, ok := strings.CutSuffix(s, "%"); ok {
		v, err := strconv.ParseFloat(pct, 64)
		return v / 100, err
	}
	return strconv.ParseFloat(s, 64)
}

// parseRate reads a bandwidth in bytes/sec, accepting bit-rate suffixes.
func parseRate(s string) (int64, error) {
	for _, u := range []struct {
		suffix string
		mult   int64 // to bytes/sec
	}{{"kbit", 125}, {"mbit", 125_000}, {"kbps", 125}, {"mbps", 125_000}} {
		if n, ok := strings.CutSuffix(s, u.suffix); ok {
			v, err := strconv.ParseFloat(n, 64)
			return int64(v * float64(u.mult)), err
		}
	}
	return strconv.ParseInt(s, 10, 64)
}

// Fate is one shaping decision: the fate of a single datagram on a
// link. Delay is meaningful only when Drop is false.
type Fate struct {
	Drop  bool
	Delay time.Duration
}

// linkShaper is the per-(src, dst) state: an independent RNG stream and
// the token bucket's virtual clock. Decisions depend only on the seed
// and the sequence of (now, size) calls, never on other links.
type linkShaper struct {
	rng *sim.RNG
	// tokens and tokenTime implement the bucket: at tokenTime the link
	// had tokens bytes of credit; refill is linear in elapsed time.
	tokens    int64
	tokenTime time.Duration
}

// Shaper applies one ShapeProfile to every egress link of one node,
// with an isolated deterministic RNG stream per destination. Like the
// address book it belongs to the goroutine that runs the node's session,
// which makes every Send, so it takes no lock.
type Shaper struct {
	profile ShapeProfile
	seed    uint64
	src     int
	links   map[int]*linkShaper

	dropped, delayed int64
}

// NewShaper builds the egress shaper for node src. A zero profile
// returns nil — the transport treats a nil shaper as a clean network.
func NewShaper(profile ShapeProfile, seed uint64, src int) *Shaper {
	if profile.IsZero() {
		return nil
	}
	return &Shaper{
		profile: profile,
		seed:    seed,
		src:     src,
		links:   make(map[int]*linkShaper),
	}
}

// Dropped returns how many datagrams the shaper consumed as link loss;
// every frame packed in one is lost with it.
func (s *Shaper) Dropped() int64 {
	if s == nil {
		return 0
	}
	return s.dropped
}

// Delayed returns how many datagrams left late (latency, jitter or
// bandwidth queueing).
func (s *Shaper) Delayed() int64 {
	if s == nil {
		return 0
	}
	return s.delayed
}

// Shape decides the fate of a size-byte datagram sent to dst at link
// time now (any monotonic clock; the transport uses its latest clock
// stamp less its first, the determinism tests a synthetic schedule). It
// consumes the link's RNG stream and token bucket, so identical call
// sequences against identical seeds produce identical fates.
func (s *Shaper) Shape(dst int, size int, now time.Duration) Fate {
	if s == nil {
		return Fate{}
	}
	l, ok := s.links[dst]
	if !ok {
		l = &linkShaper{
			rng:       sim.DeriveRNG(s.seed, uint64(uint32(s.src))<<32|uint64(uint32(dst))),
			tokens:    s.profile.burstBytes(),
			tokenTime: now,
		}
		s.links[dst] = l
	}
	f := l.decide(s.profile, size, now)
	if f.Drop {
		s.dropped++
	} else if f.Delay > 0 {
		s.delayed++
	}
	return f
}

// decide draws this datagram's fate. The RNG consumption order is fixed
// per profile (loss, then jitter, then reorder — each drawn only when
// its parameter is set), which is what makes the per-link decision
// sequence a pure function of (seed, profile, call sequence).
func (l *linkShaper) decide(p ShapeProfile, size int, now time.Duration) Fate {
	if p.Loss > 0 && l.rng.Bool(p.Loss) {
		return Fate{Drop: true}
	}
	delay := p.Latency
	if p.Jitter > 0 {
		// Uniform over [-Jitter, +Jitter], inclusive.
		delay += time.Duration(l.rng.Uint64n(uint64(2*p.Jitter)+1)) - p.Jitter
	}
	if p.Reorder > 0 && l.rng.Bool(p.Reorder) {
		// The reordered datagram skips the latency queue and overtakes
		// whatever is in flight ahead of it.
		delay = 0
	}
	if p.Rate > 0 {
		// Refill since the last send, capped at the burst depth; then
		// spend. A negative balance is the uplink queue: the datagram
		// departs when its last byte's token would have accrued. The
		// bucket's clock moves on only by the time the whole bytes it
		// credited took, so a fraction of a byte carries over to the next
		// send: sends closer together than one byte's time still refill.
		if dt := now - l.tokenTime; dt > 0 {
			refill := int64(float64(dt) / float64(time.Second) * float64(p.Rate))
			if burst := p.burstBytes(); l.tokens+refill >= burst {
				l.tokens, l.tokenTime = burst, now
			} else {
				l.tokens += refill
				l.tokenTime = min(now, l.tokenTime+time.Duration(float64(refill)/float64(p.Rate)*float64(time.Second)))
			}
		}
		l.tokens -= int64(size)
		if l.tokens < 0 {
			delay += time.Duration(float64(-l.tokens) / float64(p.Rate) * float64(time.Second))
		}
	}
	if delay < 0 {
		delay = 0
	}
	return Fate{Delay: delay}
}
