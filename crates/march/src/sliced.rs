//! Sparse single-fault replay over a [`CompiledTrace`].
//!
//! The replay walks a k-way merge (k ≤ [`MAX_SUPPORT_WORDS`]) of the
//! per-word op lists of the fault's support words, maintaining only the
//! support words' values plus the fault's dynamic state (retention
//! `last_write_ns`, pull-open `consecutive_reads`, per-port sense latches).
//! Each branch mirrors the corresponding single-fault path of
//! `mbist_mem::array` exactly: two-phase writes (stuck-open suppression →
//! transition → stuck-at clamp → commit → state bookkeeping → coupling
//! from committed transitions), and the read order stuck-open → retention
//! decay → pull-open drain → state coupling → static NPSF → stuck-at
//! clamp. Decoder faults — which have no address-local support set — take
//! a dedicated two-word replay over the pair of words they wire together
//! ([`detect_decoder`]). Equivalence with the full replay is asserted by
//! the in-crate tests and the `sliced_equivalence` proptest suite.

use mbist_mem::{CellId, FaultKind, PortId, MAX_SUPPORT_CELLS};

use crate::trace::{CompiledTrace, PrevRead, TraceOp, TraceOpKind};

/// Distinct words a support set can span (one cell per word worst case).
pub(crate) const MAX_SUPPORT_WORDS: usize = MAX_SUPPORT_CELLS;

/// Reusable replay scratch: the per-port sense-latch history is the only
/// heap allocation a sliced replay needs, so hoisting it here makes the
/// sliced replays of a plan run allocation-free.
#[derive(Debug, Default)]
pub(crate) struct SlicedScratch {
    last_read: Vec<Option<(u32, u64)>>,
}

/// Sliced differential detection of one fault, or `None` when the fault
/// has neither an address-local support set nor a decoder word pair.
/// Allocating convenience wrapper around [`detect_sliced_with`] for
/// one-shot callers.
pub(crate) fn detect_sliced(trace: &CompiledTrace, fault: FaultKind) -> Option<bool> {
    detect_sliced_with(trace, fault, &mut SlicedScratch::default())
}

/// Sliced differential detection of one fault against caller-provided
/// scratch. Decoder faults take a dedicated two-word replay; `None` is
/// reserved for future fault kinds with neither an address-local support
/// set nor a decoder word pair.
pub(crate) fn detect_sliced_with(
    trace: &CompiledTrace,
    fault: FaultKind,
    scratch: &mut SlicedScratch,
) -> Option<bool> {
    if fault.decoder_words().is_some() {
        return Some(detect_decoder(trace, fault));
    }
    let support = fault.support()?;
    let mut words = [0u64; MAX_SUPPORT_WORDS];
    let mut n = 0;
    for c in support.cells() {
        if !words[..n].contains(&c.word) {
            words[n] = c.word;
            n += 1;
        }
    }
    let words = &words[..n];

    // A fault-free miscompare outside the support replays identically under
    // the fault, so it alone decides detection.
    if trace.golden_miscompares().iter().any(|&(_, a)| !words.contains(&a)) {
        return Some(true);
    }

    let mut lists: [&[TraceOp]; MAX_SUPPORT_WORDS] = [&[]; MAX_SUPPORT_WORDS];
    for (slot, &w) in lists.iter_mut().zip(words.iter()) {
        *slot = trace.ops_for_word(w);
    }
    let mut state = Sparse::new(trace.geometry().ports(), words, fault, scratch);

    // k-way merge of the per-word op lists back into stream order.
    let mut cursor = [0usize; MAX_SUPPORT_WORDS];
    loop {
        let mut next: Option<usize> = None;
        for i in 0..n {
            if cursor[i] < lists[i].len() {
                let step = lists[i][cursor[i]].step;
                if next.is_none_or(|j| lists[j][cursor[j]].step > step) {
                    next = Some(i);
                }
            }
        }
        let Some(i) = next else { break };
        let op = lists[i][cursor[i]];
        cursor[i] += 1;
        match op.kind {
            TraceOpKind::Write(data) => state.write(i, data, op.now_ns),
            TraceOpKind::Read { expected, golden: _, prev_read } => {
                let observed = state.read(i, op.port, op.step, op.now_ns, prev_read);
                if expected.is_some_and(|e| e != observed) {
                    return Some(true);
                }
            }
        }
    }
    Some(false)
}

/// Two-word differential replay of an address-decoder fault. An
/// `AddressMap`/`AddressMulti` deviation is confined to the two words the
/// fault wires together — every other access replays identically to the
/// golden trace — so walking the merged op lists of those two words with
/// the remap / multi-access semantics of `mbist_mem::array` (remap first,
/// then multi expansion on the mapped address; reads combine wired-AND/OR)
/// decides detection exactly.
fn detect_decoder(trace: &CompiledTrace, fault: FaultKind) -> bool {
    let (a, b) = fault.decoder_words().expect("decoder fault");
    // A fault-free miscompare at any other word replays identically under
    // the fault and decides detection on its own.
    if trace.golden_miscompares().iter().any(|&(_, w)| w != a && w != b) {
        return true;
    }
    let (ops_a, ops_b) = (trace.ops_for_word(a), trace.ops_for_word(b));
    // Physical values of the two words (power-up 0). For `AddressMap`,
    // word `a` (= `from`) is never physically accessed — reads and writes
    // of either address land on `b` (= `to`) — so only `val_b` matters.
    let (mut val_a, mut val_b) = (0u64, 0u64);
    let (mut i, mut j) = (0, 0);
    while i < ops_a.len() || j < ops_b.len() {
        let at_a = j >= ops_b.len() || (i < ops_a.len() && ops_a[i].step < ops_b[j].step);
        let op = if at_a { &ops_a[i] } else { &ops_b[j] };
        if at_a {
            i += 1;
        } else {
            j += 1;
        }
        match op.kind {
            TraceOpKind::Write(data) => match fault {
                FaultKind::AddressMap { .. } => val_b = data,
                FaultKind::AddressMulti { .. } => {
                    // A write to `addr` fans out to the extra word too; a
                    // write to `extra` is direct.
                    if at_a {
                        val_a = data;
                    }
                    val_b = data;
                }
                _ => unreachable!("decoder replay handles decoder faults only"),
            },
            TraceOpKind::Read { expected, .. } => {
                let observed = match fault {
                    FaultKind::AddressMap { .. } => val_b,
                    FaultKind::AddressMulti { wired_and, .. } => {
                        if at_a {
                            // Both word lines fire: the bit lines resolve
                            // wired-AND (or wired-OR).
                            if wired_and {
                                val_a & val_b
                            } else {
                                val_a | val_b
                            }
                        } else {
                            val_b
                        }
                    }
                    _ => unreachable!("decoder replay handles decoder faults only"),
                };
                if expected.is_some_and(|e| e != observed) {
                    return true;
                }
            }
        }
    }
    false
}

/// O(|support|) faulty state: the support words' contents plus the fault's
/// dynamic state.
struct Sparse<'s> {
    fault: FaultKind,
    addrs: [u64; MAX_SUPPORT_WORDS],
    values: [u64; MAX_SUPPORT_WORDS],
    n: usize,
    /// Retention bookkeeping (time of last write to the faulty cell).
    last_write_ns: f64,
    /// Pull-open bookkeeping (reads of the faulty cell since its last
    /// write).
    consecutive_reads: u8,
    /// Per-port replayed support reads, as `(step, observed)` — resolves
    /// whether the golden `prev_read` of a stuck-open observation was
    /// itself a (possibly deviating) support read. Borrowed from the
    /// caller's [`SlicedScratch`] so replays reuse one allocation.
    last_read: &'s mut Vec<Option<(u32, u64)>>,
}

impl<'s> Sparse<'s> {
    fn new(
        ports: u8,
        words: &[u64],
        fault: FaultKind,
        scratch: &'s mut SlicedScratch,
    ) -> Self {
        let mut addrs = [0u64; MAX_SUPPORT_WORDS];
        addrs[..words.len()].copy_from_slice(words);
        scratch.last_read.clear();
        scratch.last_read.resize(usize::from(ports), None);
        let mut state = Self {
            fault,
            addrs,
            values: [0; MAX_SUPPORT_WORDS],
            n: words.len(),
            last_write_ns: 0.0,
            consecutive_reads: 0,
            last_read: &mut scratch.last_read,
        };
        // Injection clamps a stuck-at cell immediately, as the array does.
        if let FaultKind::StuckAt { cell, value } = fault {
            state.set_cell(cell, value);
        }
        state
    }

    fn slot_of(&self, word: u64) -> usize {
        self.addrs[..self.n]
            .iter()
            .position(|&a| a == word)
            .expect("support cells live in support words")
    }

    fn bit(&self, cell: CellId) -> bool {
        self.values[self.slot_of(cell.word)] >> cell.bit & 1 == 1
    }

    fn set_cell(&mut self, cell: CellId, value: bool) {
        let slot = self.slot_of(cell.word);
        if value {
            self.values[slot] |= 1 << cell.bit;
        } else {
            self.values[slot] &= !(1 << cell.bit);
        }
    }

    /// Mirrors `MemoryArray::write_word` for the single injected fault.
    fn write(&mut self, slot: usize, data: u64, now_ns: f64) {
        let word = self.addrs[slot];
        let old = self.values[slot];
        let mut new = data;
        let mut sof = 0u64;
        match self.fault {
            FaultKind::StuckOpen { cell } if cell.word == word => {
                sof = 1 << cell.bit;
            }
            FaultKind::Transition { cell, rising } if cell.word == word => {
                let b = 1u64 << cell.bit;
                let o = old & b != 0;
                let r = data & b != 0;
                if rising && !o && r {
                    new &= !b;
                }
                if !rising && o && !r {
                    new |= b;
                }
            }
            FaultKind::StuckAt { cell, value } if cell.word == word => {
                let b = 1u64 << cell.bit;
                if value {
                    new |= b;
                } else {
                    new &= !b;
                }
            }
            _ => {}
        }
        new = (new & !sof) | (old & sof);
        self.values[slot] = new;

        // State bookkeeping for every write that lands on the faulty word
        // (the single fault can never be masked by another fault's SOF).
        match self.fault {
            FaultKind::Retention { cell, .. } if cell.word == word => {
                self.last_write_ns = now_ns;
            }
            FaultKind::PullOpen { cell, .. } if cell.word == word => {
                self.consecutive_reads = 0;
            }
            _ => {}
        }

        // Phase 2: coupling effects from the committed transitions. A single
        // fault has a single aggressor/trigger cell, so at most one effect.
        let changed = old ^ new;
        if changed == 0 {
            return;
        }
        match self.fault {
            FaultKind::CouplingInversion { aggressor, victim, rising }
                if aggressor.word == word =>
            {
                let b = 1u64 << aggressor.bit;
                if changed & b != 0
                    && (new & b != 0) == rising
                    && victim_sensitized(victim, word, changed)
                {
                    let v = !self.bit(victim);
                    self.set_cell(victim, v);
                }
            }
            FaultKind::CouplingIdempotent { aggressor, victim, rising, forced }
                if aggressor.word == word =>
            {
                let b = 1u64 << aggressor.bit;
                if changed & b != 0
                    && (new & b != 0) == rising
                    && victim_sensitized(victim, word, changed)
                {
                    self.set_cell(victim, forced);
                }
            }
            FaultKind::NpsfActive { base, trigger, rising, others }
                if trigger.word == word =>
            {
                let b = 1u64 << trigger.bit;
                if changed & b != 0
                    && (new & b != 0) == rising
                    && others.iter().all(|&(c, v)| self.bit(c) == v)
                    && victim_sensitized(base, word, changed)
                {
                    let v = !self.bit(base);
                    self.set_cell(base, v);
                }
            }
            _ => {}
        }
    }

    /// Mirrors `MemoryArray::observe_word` (and its per-cell
    /// `observed_bit_indexed` sequence) for the single injected fault,
    /// returning the observed word value.
    fn read(
        &mut self,
        slot: usize,
        port: PortId,
        step: u32,
        now_ns: f64,
        prev_read: Option<PrevRead>,
    ) -> u64 {
        let word = self.addrs[slot];
        let mut value = self.values[slot];
        match self.fault {
            // SOF dominates: nothing is driven, the sense amp repeats the
            // previous read on this port (0 while the latch is invalid).
            FaultKind::StuckOpen { cell } if cell.word == word => {
                let b = 1u64 << cell.bit;
                match self.latched(port, prev_read) {
                    Some(latch) if latch & b != 0 => value |= b,
                    _ => value &= !b,
                }
            }
            // Retention decay is applied lazily at observation time, and
            // the decayed store refreshes the cell like any write.
            FaultKind::Retention { cell, decays_to, retention_ns }
                if cell.word == word && now_ns - self.last_write_ns > retention_ns =>
            {
                self.set_cell(cell, decays_to);
                self.last_write_ns = now_ns;
                value = self.values[slot];
            }
            // Pull-open: repeated reads drain the node; the drained store
            // resets the counter, so the drain re-arms like after a write.
            FaultKind::PullOpen { cell, good_reads, decays_to } if cell.word == word => {
                self.consecutive_reads = self.consecutive_reads.saturating_add(1);
                if self.consecutive_reads > good_reads {
                    self.set_cell(cell, decays_to);
                    self.consecutive_reads = 0;
                    value = self.values[slot];
                }
            }
            FaultKind::CouplingState { aggressor, victim, when, forced }
                if victim.word == word && self.bit(aggressor) == when =>
            {
                value = with_bit(value, victim.bit, forced);
            }
            FaultKind::NpsfStatic { base, neighborhood, forced }
                if base.word == word
                    && neighborhood.iter().all(|&(c, v)| self.bit(c) == v) =>
            {
                value = with_bit(value, base.bit, forced);
            }
            // Stuck-at clamps the read path too (storage already clamped,
            // kept for exactness with the array's observation order).
            FaultKind::StuckAt { cell, value: v } if cell.word == word => {
                value = with_bit(value, cell.bit, v);
            }
            _ => {}
        }
        self.last_read[usize::from(port.0)] = Some((step, value));
        value
    }

    /// The sense-amplifier value a stuck-open read repeats: the previous
    /// read on the port — replayed observation if that read was a support
    /// access we replayed, golden otherwise; `None` while the latch is
    /// still invalid (no read yet on the port).
    fn latched(&self, port: PortId, prev_read: Option<PrevRead>) -> Option<u64> {
        let prev = prev_read?;
        if let Some((step, observed)) = self.last_read[usize::from(port.0)] {
            if step == prev.step {
                return Some(observed);
            }
        }
        Some(prev.golden)
    }
}

/// Whether a coupling effect reaches `victim` given the committed change
/// mask of the word just written — same sensitization condition as
/// `mbist_mem::array`.
fn victim_sensitized(victim: CellId, word: u64, changed: u64) -> bool {
    victim.word != word || changed & (1u64 << victim.bit) == 0
}

fn with_bit(value: u64, bit: u8, v: bool) -> u64 {
    if v {
        value | 1 << bit
    } else {
        value & !(1 << bit)
    }
}

#[cfg(test)]
mod tests {
    use crate::expand::{expand_with, ExpandOptions};
    use crate::library;
    use crate::trace::CompiledTrace;
    use mbist_mem::{
        class_universe, FaultClass, MemGeometry, MemoryArray, TestStep, UniverseSpec,
    };

    /// Asserts sliced ≡ full replay for every fault of every class universe
    /// of `g` against `steps`.
    fn assert_equivalence(g: MemGeometry, steps: &[TestStep], label: &str) {
        let trace = CompiledTrace::from_steps(g, steps);
        let spec = UniverseSpec::default();
        let mut scratch = MemoryArray::new(g);
        let mut sliced_hits = 0usize;
        for class in FaultClass::ALL {
            for fault in class_universe(&g, class, &spec) {
                let full = trace.detect_full(fault, &mut scratch);
                if let Some(flag) = trace.detect_sliced(fault) {
                    sliced_hits += 1;
                    assert_eq!(
                        flag, full,
                        "{label}: sliced disagrees with full replay on {fault}"
                    );
                }
                assert_eq!(trace.detect(fault), full, "{label}: routed detect on {fault}");
            }
        }
        assert!(sliced_hits > 0, "{label}: no fault took the sliced path");
    }

    #[test]
    fn sliced_matches_full_replay_bit_oriented() {
        let g = MemGeometry::bit_oriented(16);
        for test in
            [library::mats(), library::march_c(), library::march_a(), library::march_b()]
        {
            let steps = expand_with(&test, &g, &ExpandOptions::for_geometry(&g));
            assert_equivalence(g, &steps, test.name());
        }
    }

    #[test]
    fn sliced_matches_full_replay_on_timing_sensitive_tests() {
        // March C+ carries retention pauses, March C++ triple reads — the
        // Retention/PullOpen timing paths must agree exactly.
        let g = MemGeometry::bit_oriented(16);
        for test in [library::march_c_plus(), library::march_c_plus_plus()] {
            let steps = expand_with(&test, &g, &ExpandOptions::for_geometry(&g));
            assert_equivalence(g, &steps, test.name());
        }
    }

    #[test]
    fn sliced_matches_full_replay_word_oriented() {
        // Word-oriented geometries exercise intra-word coupling
        // sensitization and data backgrounds.
        for g in [MemGeometry::word_oriented(8, 4), MemGeometry::word_oriented(6, 8)] {
            for test in [library::march_c(), library::march_c_plus_plus()] {
                let steps = expand_with(&test, &g, &ExpandOptions::for_geometry(&g));
                assert_equivalence(g, &steps, test.name());
            }
        }
    }

    #[test]
    fn sliced_matches_full_replay_multiport() {
        // Multi-port streams exercise the per-port sense-latch resolution
        // of stuck-open faults.
        let g = MemGeometry::new(12, 1, 2);
        for test in [library::march_c(), library::march_c_plus()] {
            let steps = expand_with(&test, &g, &ExpandOptions::for_geometry(&g));
            assert_equivalence(g, &steps, test.name());
        }
    }

    #[test]
    fn decoder_faults_take_the_two_word_replay() {
        // Decoder faults have no address-local support set, but their
        // deviations are confined to the two wired words — the dedicated
        // replay must agree with the full array bit for bit.
        for g in [MemGeometry::bit_oriented(8), MemGeometry::word_oriented(8, 4)] {
            for test in [library::march_c(), library::mats_plus()] {
                let steps = expand_with(&test, &g, &ExpandOptions::for_geometry(&g));
                let trace = CompiledTrace::from_steps(g, &steps);
                let mut scratch = MemoryArray::new(g);
                for fault in
                    class_universe(&g, FaultClass::AddressDecoder, &UniverseSpec::default())
                {
                    assert_eq!(
                        trace.detect_sliced(fault),
                        Some(trace.detect_full(fault, &mut scratch)),
                        "{fault} ({g})"
                    );
                }
            }
        }
    }
}
