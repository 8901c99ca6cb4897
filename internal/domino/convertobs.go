package domino

import (
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
	passNs                          [convert.NumPasses]*obs.Counter

	// Poller-cycle outcomes (internal/poll), per decode cycle.
	pollRounds, pollCollisions     *obs.Counter
	pollDecoded, pollFailedReports *obs.Counter
}

// WireMetrics implements scheme.MetricsObservable: the run pipeline hands the
// engine its metrics registry and the converter's per-pass/per-batch counters
// flow into it under the convert.* namespace.
func (e *Engine) WireMetrics(m *obs.Metrics) {
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
	for i, name := range convert.PassNames {
		full := "convert.pass." + name + ".ns"
		cm.passNs[i] = m.Counter(full)
		// Wall-clock pass timings are host measurements: exclude them from
		// replay-verification digests (checkpoint restore) or no two runs
		// would ever verify.
		m.MarkWallClock(full)
	}
	e.convMetrics = cm
	e.chainDepth = m.LogHist("domino.chain_depth")
}

// notePollCycle accounts one completed polling cycle: engine counters always,
// metrics counters when wired.
func (e *Engine) notePollCycle(res poll.Result) {
	e.PollRounds += res.Rounds
	e.PollCollisions += res.Collisions
	e.PollDecoded += len(res.Values)
	e.PollFailed += len(res.Failed)
	if cm := e.convMetrics; cm != nil {
		cm.pollRounds.Add(int64(res.Rounds))
		cm.pollCollisions.Add(int64(res.Collisions))
		cm.pollDecoded.Add(int64(len(res.Values)))
		cm.pollFailedReports.Add(int64(len(res.Failed)))
	}
}

// noteConvert accounts one dispatched batch: counters into the metrics
// registry (wall-clock pass times included — they never enter traces) and,
// when Config.ConvertTrace is on, deterministic KindConvert records.
func (e *Engine) noteConvert(p *convert.Plan, firstSlot int) {
	st := &p.Stats
	if cm := e.convMetrics; cm != nil {
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
		for i, ns := range st.PassNs {
			cm.passNs[i].Add(ns)
		}
	}
	if !e.cfg.ConvertTrace || e.Obs == nil {
		return
	}
	// All of a batch's records share one span, so tracedump can group a
	// conversion batch as a single tree node.
	var batchSpan int64
	if e.sp != nil {
		batchSpan = e.sp.Next()
	}
	emit := func(aux string, value, extra int64) {
		rec := obs.Rec(e.k.Now(), obs.KindConvert)
		rec.Slot = firstSlot
		rec.Aux = aux
		rec.Value = value
		rec.Extra = extra
		rec.OK = true
		rec.Span = batchSpan
		e.Obs.Emit(rec)
	}
	// One record per pass, each carrying that pass's two headline counters.
	// Pass wall-clock times deliberately never appear here: traces must stay
	// deterministic.
	emit(convert.PassNames[0], int64(st.RealEntries), int64(st.FakeEntries))
	emit(convert.PassNames[1], int64(st.Triggers), int64(st.BackupTriggers))
	emit(convert.PassNames[2], int64(st.BoundaryTriggers), int64(st.Untriggered))
	emit(convert.PassNames[3], int64(st.ROPSlots), int64(st.PollTriggers))
	emit("batch", int64(len(p.Slots)), 0)
	// Inbound-trigger histogram over this batch's entries (final: batch
	// connection already ran) and combined-signature histogram over the slots
	// whose broadcast lists are final — the rewritten retained slot plus every
	// slot but the last (its broadcasts fill in when the next batch connects).
	inbound := map[int]int{}
	for i := range p.Slots {
		for _, en := range p.Slots[i].Entries {
			inbound[len(en.TriggeredBy)]++
		}
	}
	for k := 0; k <= e.server.conv.MaxInbound; k++ {
		if inbound[k] > 0 {
			emit("inbound", int64(k), int64(inbound[k]))
		}
	}
	combined := map[int]int{}
	tally := func(s *convert.RelSlot) {
		for _, b := range s.Broadcasts {
			combined[len(b.Targets)]++
		}
	}
	if p.Prev != nil {
		tally(p.Prev)
	}
	for i := 0; i+1 < len(p.Slots); i++ {
		tally(&p.Slots[i])
	}
	for k := 1; k <= e.server.conv.MaxOutbound; k++ {
		if combined[k] > 0 {
			emit("combined", int64(k), int64(combined[k]))
		}
	}
}
