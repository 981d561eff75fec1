package builder

import (
	"specsyn/internal/core"
	"specsyn/internal/sem"
)

// Concurrency tags (§2.3): two channel accesses that cannot overlap in
// time may share bus wires, and the estimator counts same-tag channels by
// their maximum rather than their sum. The paper obtains the tags "by
// scheduling the contents of the behavior"; internal/sched implements that
// as an ASAP schedule of each behavior's top-level statements under data
// dependencies, with waits, calls and returns serializing. The builder's
// job here is only to translate sched's per-target verdicts onto the
// channels of the graph; the channelwires pass calls tagChannels for each
// fresh behavior.

// tagChannels schedules one behavior and stamps the verdicts onto the
// given channels, which must all originate from that behavior.
func (s *state) tagChannels(b *sem.Behavior, chans []*core.Channel) {
	if len(chans) == 0 {
		return
	}
	s.sched.Run(s.d, b)
	for _, c := range chans {
		if tag, ok := s.sched.Tag(s.chanSym[c]); ok {
			c.Tag = tag
		}
	}
}
