package domino

import (
	"strconv"

	"repro/internal/convert"
	"repro/internal/obs"
	"repro/internal/poll"
)

// convertMetrics caches the registry pointers the conversion pipeline bumps
// once per dispatched batch (get-or-create lookups stay on the setup path).
type convertMetrics struct {
	batches                         *obs.Counter
	slots, realEntries, fakeEntries *obs.Counter
	triggers, backupTriggers        *obs.Counter
	boundaryTriggers, untriggered   *obs.Counter
	ropSlots, ropShared, ropForced  *obs.Counter
	pollTriggers                    *obs.Counter
	// triggersPerEntry[k] counts entries with k inbound triggers;
	// sigsPerBroadcast[k-1] counts broadcasts combining k signatures.
	triggersPerEntry, sigsPerBroadcast []*obs.Counter

	// Poller-cycle outcomes (internal/poll), per decode cycle.
	pollRounds, pollCollisions     *obs.Counter
	pollDecoded, pollFailedReports *obs.Counter
}

// wireMetrics makes the converter's per-batch counters and the poller's
// cycle outcomes flow into the run's metrics registry, under the convert.*
// and poll.* namespaces.
func (e *Engine) wireMetrics(m *obs.Metrics) {
	cm := &convertMetrics{
		batches:          m.Counter("convert.batches"),
		slots:            m.Counter("convert.slots"),
		realEntries:      m.Counter("convert.entries.real"),
		fakeEntries:      m.Counter("convert.entries.fake"),
		triggers:         m.Counter("convert.triggers"),
		backupTriggers:   m.Counter("convert.triggers.backup"),
		boundaryTriggers: m.Counter("convert.triggers.boundary"),
		untriggered:      m.Counter("convert.untriggered"),
		ropSlots:         m.Counter("convert.rop.slots"),
		ropShared:        m.Counter("convert.rop.shared"),
		ropForced:        m.Counter("convert.rop.forced"),
		pollTriggers:     m.Counter("convert.rop.poll_triggers"),

		pollRounds:        m.Counter("poll.rounds"),
		pollCollisions:    m.Counter("poll.collisions"),
		pollDecoded:       m.Counter("poll.decoded"),
		pollFailedReports: m.Counter("poll.failed"),
	}
	conv := e.server.conv
	for k := 0; k <= conv.MaxInbound; k++ {
		cm.triggersPerEntry = append(cm.triggersPerEntry,
			m.Counter("convert.triggers_per_entry."+strconv.Itoa(k)))
	}
	for k := 1; k <= conv.MaxOutbound; k++ {
		cm.sigsPerBroadcast = append(cm.sigsPerBroadcast,
			m.Counter("convert.signatures_per_broadcast."+strconv.Itoa(k)))
	}
	e.convMetrics = cm
	e.chainDepth = m.LogHist("domino.chain_depth")
}

// notePollCycle accounts one completed polling cycle of ap: a KindROPPoll
// record per report, parented to span, the poll that solicited the cycle;
// engine counters always, metrics counters when wired. A client without an
// OK report failed the cycle.
func (e *Engine) notePollCycle(ap *apNode, reports []poll.Report, span int64) {
	rounds := ap.poller.Rounds()
	collisions, decoded := 0, 0
	for _, r := range reports {
		if r.Collided {
			collisions++
		}
		if r.OK {
			decoded++
		}
		if e.Obs != nil {
			rec := obs.Rec(e.k.Now(), obs.KindROPPoll)
			rec.Node = int(r.Client)
			rec.Extra = int64(r.Subchannel)
			rec.Parent = span
			rec.Value = int64(r.Value)
			rec.OK = r.OK
			e.Obs.Emit(rec)
		}
	}
	failed := ap.polled - decoded
	e.PollRounds += rounds
	e.PollCollisions += collisions
	e.PollDecoded += decoded
	e.PollFailed += failed
	if cm := e.convMetrics; cm != nil {
		cm.pollRounds.Add(int64(rounds))
		cm.pollCollisions.Add(int64(collisions))
		cm.pollDecoded.Add(int64(decoded))
		cm.pollFailedReports.Add(int64(failed))
	}
}

// noteConvert accounts one dispatched batch into the metrics registry.
func (e *Engine) noteConvert(p *convert.Plan) {
	cm := e.convMetrics
	if cm == nil {
		return
	}
	st := &p.Stats
	cm.batches.Inc()
	cm.slots.Add(int64(st.Slots))
	cm.realEntries.Add(int64(st.RealEntries))
	cm.fakeEntries.Add(int64(st.FakeEntries))
	cm.triggers.Add(int64(st.Triggers))
	cm.backupTriggers.Add(int64(st.BackupTriggers))
	cm.boundaryTriggers.Add(int64(st.BoundaryTriggers))
	cm.untriggered.Add(int64(st.Untriggered))
	cm.ropSlots.Add(int64(st.ROPSlots))
	cm.ropShared.Add(int64(st.ROPShared))
	cm.ropForced.Add(int64(st.ROPForced))
	cm.pollTriggers.Add(int64(st.PollTriggers))
	// Inbound triggers per entry of this batch (final: batch connection
	// already ran), and signatures per broadcast over the slots whose
	// broadcast lists are final — the rewritten retained slot plus every
	// slot but the last (its broadcasts fill in when the next batch
	// connects). The converter keeps every entry at ≤ MaxInbound triggers
	// and every broadcast at 1..MaxOutbound signatures (convert.Verify).
	for i := range p.Slots {
		for _, en := range p.Slots[i].Entries {
			cm.triggersPerEntry[len(en.TriggeredBy)].Inc()
		}
	}
	tally := func(s *convert.RelSlot) {
		for _, b := range s.Broadcasts {
			cm.sigsPerBroadcast[len(b.Targets)-1].Inc()
		}
	}
	if p.Prev != nil {
		tally(p.Prev)
	}
	for i := 0; i+1 < len(p.Slots); i++ {
		tally(&p.Slots[i])
	}
}
