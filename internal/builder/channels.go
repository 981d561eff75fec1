package builder

import (
	"specsyn/internal/core"
	"specsyn/internal/profile"
	"specsyn/internal/sem"
)

// passFrequencies lays out the channel set C with its §2.4.1 frequency
// annotations, one block per behavior in design order. For every fresh
// behavior, the profile-weighted access walk enumerates reads, writes and
// calls with expected/min/max counts per start-to-finish execution;
// repeated accesses to the same destination merge into one channel (SLIF
// keeps one edge per (src, dst) pair, keyed by Channel.Key()), in
// first-access order so builds are deterministic. Any other behavior's
// block is prev's.
func passFrequencies(s *state) error {
	if s.prev != nil {
		s.g.Channels = make([]*core.Channel, 0, len(s.prev.Channels))
	}
	s.spans = make([]int, len(s.d.Behaviors)+1)
	for i, b := range s.d.Behaviors {
		n := s.g.Nodes[i]
		if !s.fresh(b.UniqueID) {
			s.g.Channels = append(s.g.Channels, s.prev.BehChans(n)...)
		} else if err := s.behaviorChannels(b, n); err != nil {
			return behErr(b, err)
		}
		s.spans[i+1] = len(s.g.Channels)
	}
	return nil
}

// chans returns behavior i's channel block.
func (s *state) chans(i int) []*core.Channel {
	return s.g.Channels[s.spans[i]:s.spans[i+1]]
}

// behaviorChannels is the frequency pass's per-behavior body: it appends
// the merged channels of one behavior to the graph in first-access order,
// with the §2.4.1 avg/min/max access counts, registering each channel's
// destination symbol in s.chanSym.
func (s *state) behaviorChannels(b *sem.Behavior, src *core.Node) error {
	var (
		bySym = map[*sem.Symbol]*core.Channel{}
		walkE error
	)
	profile.Walk(s.d, b, s.prof, func(ev profile.Event) {
		if walkE != nil {
			return
		}
		c := bySym[ev.Target]
		if c == nil {
			dst, err := s.endpoint(ev.Target)
			if err != nil {
				walkE = err
				return
			}
			c = &core.Channel{Src: src, Dst: dst, Tag: core.NoTag}
			bySym[ev.Target] = c
			s.chanSym[c] = ev.Target
			s.g.Channels = append(s.g.Channels, c)
		}
		c.AccFreq += ev.Counts.Avg
		c.AccMin += ev.Counts.Min
		c.AccMax += ev.Counts.Max
	})
	return walkE
}

// passChannelWires annotates every fresh channel with the per-access
// transfer width feeding the estimator's transfer model — scalar accesses
// cost their encoding, array accesses one element plus its address, calls
// the parameter (and result) bits — and derives the §2.3 concurrency tags
// unless the build opted out.
func passChannelWires(s *state) error {
	for i, b := range s.d.Behaviors {
		if !s.fresh(b.UniqueID) {
			continue
		}
		chans := s.chans(i)
		for _, c := range chans {
			s.wireChannel(c)
		}
		if !s.opts.SkipTags {
			s.tagChannels(b, chans)
		}
	}
	return nil
}

// wireChannel is the wire pass's per-channel body: it sets the channel's
// per-access bit count from the resolved destination symbol.
func (s *state) wireChannel(c *core.Channel) {
	switch sym := s.chanSym[c]; sym.Kind {
	case sem.SymObject:
		c.Bits = sym.Object.Type.AccessBits()
	case sem.SymPort:
		c.Bits = sym.Port.Type.AccessBits()
	case sem.SymBehavior:
		c.Bits = sym.Behavior.ParamBits()
	}
}
