//! The fitness oracle: candidate march tests scored by fault simulation.
//!
//! One oracle instance owns the target fault universe (a user-selected
//! class subset, deterministically stride-sampled) and scores candidates
//! through [`CandidateBatchScorer`] — per-worker reusable compile arenas,
//! the packed engine's precomputed universe plan, and early exit once the
//! detection target is decided. Scores are bit-identical for every worker
//! count and engine, which is what makes the whole search trajectory (and
//! therefore its output) independent of `--jobs` and of the engine choice.
//!
//! # Batched evaluation and the serial contract
//!
//! [`FitnessOracle::evaluate_batch`] fans a whole generation of candidates
//! across workers and *commits* (memo inserts, evaluation counts) in
//! candidate order — never first-finished-wins — so its observable oracle
//! state is exactly what the same candidates evaluated one-by-one through
//! [`FitnessOracle::evaluate`] would leave behind. [`shrink_elements`]
//! batches whole removal-trial waves the same way: trials are simulated
//! speculatively in parallel, then committed in the serial scan order up
//! to and including the first acceptance; the speculated remainder is
//! discarded uncounted and unmemoized, because the serial scan would have
//! rebuilt those trials from the new, shorter candidate.
//!
//! # Memoization
//!
//! Evaluations are memoized on the candidate's canonical *byte encoding*
//! (element order tag + op bytes, see [`canonical_key`]) rather than its
//! display string — same equivalence classes, no formatting on the hot
//! path. The memo is a byte-capped LRU (the discipline of the service's
//! trace cache): capacity generous enough that a search never evicts, but
//! bounded, so a pathological run cannot grow it without limit. A memo
//! hit costs a hash lookup, not a simulation, and does not consume budget.

use std::collections::HashMap;

use mbist_march::{
    AddressOrder, CancelToken, CandidateBatchScorer, ExpandOptions, MarchElement, MarchOp,
    MarchTest,
};
use mbist_mem::subset_universe;

use crate::{canonical_elements, SearchOptions};

/// A candidate's score: faults detected plus the length penalty input.
///
/// Ordering is lexicographic — more faults detected (capped at the target,
/// so a converged candidate is not rewarded for over-covering) beats any
/// length, then fewer operations per cell wins. This is the
/// `(coverage, −length)` fitness every strategy optimizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fitness {
    /// Faults of the target universe the candidate detects. Memoized
    /// evaluations cap this at the oracle's detection target (the scan
    /// early-exits once the target is decided); use
    /// [`FitnessOracle::evaluate_exact`] for the uncapped count.
    pub detected: usize,
    /// The candidate's classical complexity figure (ops per cell).
    pub ops_per_cell: usize,
}

impl Fitness {
    /// Whether `self` strictly beats `other` under the
    /// `(min(detected, target), −ops_per_cell)` lexicographic order.
    #[must_use]
    pub fn beats(&self, other: &Fitness, target: usize) -> bool {
        let a = (self.detected.min(target), usize::MAX - self.ops_per_cell);
        let b = (other.detected.min(target), usize::MAX - other.ops_per_cell);
        a > b
    }
}

/// The canonical byte encoding of a candidate element sequence (which must
/// already be in canonical read-expectation form): per element one address-
/// order tag, one byte per op, and a terminator byte no op encoding uses —
/// so element boundaries can never alias and two sequences share a key iff
/// they are the same canonical sequence.
#[must_use]
pub fn canonical_key(elements: &[MarchElement]) -> Vec<u8> {
    let mut key =
        Vec::with_capacity(elements.iter().map(|e| e.ops().len() + 2).sum::<usize>());
    for e in elements {
        key.push(match e.order() {
            AddressOrder::Up => 0,
            AddressOrder::Down => 1,
            AddressOrder::Any => 2,
        });
        for op in e.ops() {
            key.push(match op {
                MarchOp::Write(false) => 0x10,
                MarchOp::Write(true) => 0x11,
                MarchOp::Read(false) => 0x12,
                MarchOp::Read(true) => 0x13,
            });
        }
        key.push(0xff);
    }
    key
}

/// Default memo byte budget: ~1 MiB holds every candidate a budgeted
/// search can evaluate many times over, so the cap exists to bound memory,
/// not to be reached.
const MEMO_CAPACITY_BYTES: usize = 1 << 20;

#[derive(Debug)]
struct MemoSlot {
    fit: Fitness,
    bytes: usize,
    last_used: u64,
}

/// Byte-capped LRU memo of canonical key → fitness, mirroring the service
/// trace cache's accounting: every entry is charged its key bytes plus
/// slot overhead against one budget, inserts evict least-recently-used
/// entries until the budget holds, and a capacity of zero disables
/// memoization entirely.
#[derive(Debug)]
struct Memo {
    slots: HashMap<Vec<u8>, MemoSlot>,
    bytes: usize,
    tick: u64,
    capacity_bytes: usize,
}

impl Memo {
    fn new(capacity_bytes: usize) -> Self {
        Self { slots: HashMap::new(), bytes: 0, tick: 0, capacity_bytes }
    }

    /// Non-refreshing membership test, for planning which candidates of a
    /// batch need simulation without perturbing the LRU order the serial
    /// commit scan will establish.
    fn contains(&self, key: &[u8]) -> bool {
        self.slots.contains_key(key)
    }

    /// Looks up a fitness, refreshing its recency.
    fn get(&mut self, key: &[u8]) -> Option<Fitness> {
        self.tick += 1;
        let tick = self.tick;
        let slot = self.slots.get_mut(key)?;
        slot.last_used = tick;
        Some(slot.fit)
    }

    fn insert(&mut self, key: Vec<u8>, fit: Fitness) {
        let bytes = key.len() + std::mem::size_of::<MemoSlot>();
        if bytes > self.capacity_bytes {
            return;
        }
        self.tick += 1;
        let tick = self.tick;
        if let Some(old) = self.slots.remove(&key) {
            self.bytes -= old.bytes;
        }
        while self.bytes + bytes > self.capacity_bytes {
            let victim = self
                .slots
                .iter()
                .min_by_key(|(_, s)| s.last_used)
                .map(|(k, _)| k.clone())
                .expect("bytes > 0 implies a slot exists");
            let evicted = self.slots.remove(&victim).expect("victim exists");
            self.bytes -= evicted.bytes;
        }
        self.bytes += bytes;
        self.slots.insert(key, MemoSlot { fit, bytes, last_used: tick });
    }
}

/// Scores candidate element sequences against one fixed fault universe.
///
/// Evaluations are memoized (see the module docs): a candidate revisited
/// by mutation or shrinking costs a hash lookup, not a simulation, and
/// does not consume budget.
pub struct FitnessOracle {
    scorer: CandidateBatchScorer,
    target_detected: usize,
    jobs: Option<usize>,
    evaluations: usize,
    memo: Memo,
    memo_hits: usize,
}

impl FitnessOracle {
    /// Builds the oracle: materializes the class-subset universe for
    /// `options` and fixes the detection target from `target_coverage`.
    #[must_use]
    pub fn new(options: &SearchOptions) -> Self {
        Self::with_memo_capacity(options, MEMO_CAPACITY_BYTES)
    }

    /// [`FitnessOracle::new`] with an explicit memo byte budget (`0`
    /// disables memoization) — the production entry point always uses the
    /// default budget; this exists so tests can force eviction.
    #[must_use]
    pub fn with_memo_capacity(options: &SearchOptions, memo_capacity: usize) -> Self {
        let universe = subset_universe(
            &options.geometry,
            &options.classes,
            &options.spec,
            options.max_faults_per_class,
        );
        let clamped = options.target_coverage.clamp(0.0, 1.0);
        // ceil, so a 99.9% target on a small universe still demands the
        // last fault; an empty universe is trivially converged.
        let target_detected = (clamped * universe.len() as f64).ceil() as usize;
        Self {
            scorer: CandidateBatchScorer::new(
                options.geometry,
                ExpandOptions::for_geometry(&options.geometry),
                universe,
                options.engine,
            ),
            target_detected,
            jobs: options.jobs,
            evaluations: 0,
            memo: Memo::new(memo_capacity),
            memo_hits: 0,
        }
    }

    /// Size of the target fault universe.
    #[must_use]
    pub fn total(&self) -> usize {
        self.scorer.universe().len()
    }

    /// Faults a candidate must detect to count as converged.
    #[must_use]
    pub fn target_detected(&self) -> usize {
        self.target_detected
    }

    /// Candidate evaluations that actually simulated (memo hits excluded).
    #[must_use]
    pub fn evaluations(&self) -> usize {
        self.evaluations
    }

    /// Evaluations answered from the memo instead of simulation.
    #[must_use]
    pub fn memo_hits(&self) -> usize {
        self.memo_hits
    }

    /// Accumulated `(compile_ns, simulate_ns)` across every simulated
    /// evaluation — the compile-vs-simulate wall-clock split.
    #[must_use]
    pub fn timing(&self) -> (u64, u64) {
        self.scorer.timing()
    }

    /// Scores a candidate (the element sequence *after* the canonical
    /// `⇕(w0)` initialization; read expectations are canonicalized here).
    pub fn evaluate(&mut self, elements: &[MarchElement]) -> Fitness {
        let canon = canonical_elements(elements);
        let key = canonical_key(&canon);
        self.commit(&key, &canon, None)
    }

    /// Scores a whole batch of candidates, fanning the non-memoized ones
    /// across workers, and returns one fitness per candidate in order.
    ///
    /// Observable oracle state (memo contents and recency, evaluation and
    /// hit counts) afterwards is identical to calling
    /// [`FitnessOracle::evaluate`] on each candidate in order — batching
    /// changes only wall-clock time, never the trajectory.
    pub fn evaluate_batch(&mut self, candidates: &[Vec<MarchElement>]) -> Vec<Fitness> {
        let keyed: Vec<(Vec<MarchElement>, Vec<u8>)> = candidates
            .iter()
            .map(|c| {
                let canon = canonical_elements(c);
                let key = canonical_key(&canon);
                (canon, key)
            })
            .collect();
        let (index, scores) = self.speculate(&keyed, &CancelToken::none());
        keyed
            .iter()
            .map(|(canon, key)| {
                let speculated = index
                    .get(key.as_slice())
                    .and_then(|&i| scores.get(i).copied().flatten());
                self.commit(key, canon, speculated)
            })
            .collect()
    }

    /// The exact (uncapped) detection count of a candidate — the final
    /// reporting entry point. Bypasses the memo (whose values are capped
    /// at the target) and does not consume evaluation budget: the search
    /// has already paid for this candidate while finding it.
    #[must_use]
    pub fn evaluate_exact(&mut self, elements: &[MarchElement]) -> Fitness {
        let test = candidate_test("candidate", elements);
        Fitness {
            detected: self.scorer.score_one(&test, None),
            ops_per_cell: test.ops_per_cell(),
        }
    }

    /// Simulates every uncached unique key of `keyed` as one batch,
    /// committing nothing: returns the key → batch-slot map plus the
    /// speculative scores (slots are `None` past a cancellation point).
    fn speculate<'k>(
        &mut self,
        keyed: &'k [(Vec<MarchElement>, Vec<u8>)],
        cancel: &CancelToken,
    ) -> (HashMap<&'k [u8], usize>, Vec<Option<usize>>) {
        let mut index: HashMap<&'k [u8], usize> = HashMap::new();
        let mut tests: Vec<MarchTest> = Vec::new();
        for (canon, key) in keyed {
            if self.memo.contains(key) || index.contains_key(key.as_slice()) {
                continue;
            }
            index.insert(key, tests.len());
            tests.push(test_from_canonical("candidate", canon));
        }
        let scores =
            self.scorer.score_batch(&tests, self.jobs, Some(self.target_detected), cancel);
        (index, scores)
    }

    /// The serial-order commit for one candidate: a live memo lookup (so
    /// in-batch duplicates and evictions behave exactly as one-by-one
    /// evaluation would), then either the speculative score or an inline
    /// simulation, counted and memoized.
    fn commit(
        &mut self,
        key: &[u8],
        canon: &[MarchElement],
        speculated: Option<usize>,
    ) -> Fitness {
        if let Some(fit) = self.memo.get(key) {
            self.memo_hits += 1;
            return fit;
        }
        let detected = match speculated {
            Some(d) => d,
            // Not speculated (or its memo entry was evicted mid-commit by
            // a pathologically small budget): score inline — same pure
            // function, same result.
            None => {
                let test = test_from_canonical("candidate", canon);
                self.scorer.score_one(&test, Some(self.target_detected))
            }
        };
        // ops_per_cell counts the canonical ⇕(w0) initialization op the
        // full candidate test carries in front of the elements.
        let ops_per_cell = 1 + canon.iter().map(|e| e.ops().len()).sum::<usize>();
        let fit = Fitness { detected, ops_per_cell };
        self.evaluations += 1;
        self.memo.insert(key.to_vec(), fit);
        fit
    }
}

/// A full [`MarchTest`] for a candidate: the canonical `⇕(w0)`
/// initialization followed by the candidate elements.
#[must_use]
pub fn candidate_test(name: &str, elements: &[MarchElement]) -> MarchTest {
    test_from_canonical(name, &canonical_elements(elements))
}

/// [`candidate_test`] for elements already in canonical form.
fn test_from_canonical(name: &str, canon: &[MarchElement]) -> MarchTest {
    let mut all = vec![MarchElement::new(AddressOrder::Any, vec![MarchOp::Write(false)])];
    all.extend_from_slice(canon);
    MarchTest::from_elements(name, all)
}

/// How scanning one speculative removal wave ended.
enum WaveScan {
    /// Cancellation observed before a commit: stop with the current best.
    Cancelled,
    /// The trial at this wave position was accepted (it and everything
    /// before it are committed; the rest is discarded unscanned).
    Accepted(usize),
    /// Every trial committed and none was accepted.
    Exhausted,
}

/// Scans `trials` in serial order against `goal`: every trial is scored
/// speculatively as one batch, but committed (counted, memoized) only up
/// to and including the first acceptance — the exact state a one-by-one
/// scan would leave, because the serial scan stops deriving trials from
/// the old candidate at that same point. Cancellation is checked before
/// each commit, mirroring the serial scan's per-trial check.
fn scan_wave(
    oracle: &mut FitnessOracle,
    cancel: &CancelToken,
    trials: &[Vec<MarchElement>],
    goal: usize,
) -> WaveScan {
    let keyed: Vec<(Vec<MarchElement>, Vec<u8>)> = trials
        .iter()
        .map(|t| {
            let canon = canonical_elements(t);
            let key = canonical_key(&canon);
            (canon, key)
        })
        .collect();
    let (index, scores) = oracle.speculate(&keyed, cancel);
    for (pos, (canon, key)) in keyed.iter().enumerate() {
        if cancel.is_cancelled() {
            return WaveScan::Cancelled;
        }
        let speculated =
            index.get(key.as_slice()).and_then(|&i| scores.get(i).copied().flatten());
        let fit = oracle.commit(key, canon, speculated);
        if fit.detected >= goal {
            return WaveScan::Accepted(pos);
        }
    }
    WaveScan::Exhausted
}

/// The element-removal trials of one pass, in serial scan order (indices
/// `upper-1` down to `0` — late redundant sweeps go before early
/// load-bearing ones).
fn element_wave(best: &[MarchElement], upper: usize) -> Vec<(usize, Vec<MarchElement>)> {
    (0..upper)
        .rev()
        .map(|i| {
            let mut trial = best.to_vec();
            trial.remove(i);
            (i, trial)
        })
        .collect()
}

/// One op-removal trial: the candidate plus where the scan resumes if it
/// is accepted (same element, next op index down — op indices shift with
/// the removal exactly as the serial nested loop's counters do).
struct OpTrial {
    trial: Vec<MarchElement>,
    resume: (usize, usize),
}

/// The op-removal trials from a scan cursor onward, in serial order:
/// elements last to first, ops last to first within each element,
/// single-op elements skipped (removing their op is element removal,
/// already tried). `cursor = Some((i, j))` resumes inside element `i`
/// with `j` as the exclusive op upper bound.
fn op_wave(best: &[MarchElement], cursor: Option<(usize, usize)>) -> Vec<OpTrial> {
    let mut out = Vec::new();
    let mut i = cursor.map_or(best.len(), |(i, _)| i + 1);
    let mut jcap = cursor.map(|(_, j)| j);
    while i > 0 {
        i -= 1;
        let ops = best[i].ops();
        let upper = jcap.take().unwrap_or(ops.len()).min(ops.len());
        if ops.len() == 1 {
            continue;
        }
        let mut j = upper;
        while j > 0 {
            j -= 1;
            let mut trimmed = ops.to_vec();
            trimmed.remove(j);
            let mut trial = best.to_vec();
            trial[i] = MarchElement::new(best[i].order(), trimmed);
            out.push(OpTrial { trial, resume: (i, j) });
        }
    }
    out
}

/// Greedily shrinks a candidate without dropping below `goal` detected
/// faults: repeated element-removal passes (scanning last to first, so
/// late redundant sweeps go before early load-bearing ones), then
/// op-removal passes inside the surviving elements. Deterministic — no
/// randomness, fixed scan order — and cancellable between trials.
///
/// Trials are simulated in speculative waves (see [`scan_wave`]) but the
/// result, the evaluation count and the memo contents are identical to
/// the one-by-one scan for every worker count.
#[must_use]
pub fn shrink_elements(
    oracle: &mut FitnessOracle,
    cancel: &CancelToken,
    mut best: Vec<MarchElement>,
    goal: usize,
) -> Vec<MarchElement> {
    // Element-level removal, repeated to a fixed point.
    loop {
        let mut changed = false;
        let mut upper = best.len();
        loop {
            let wave = element_wave(&best, upper);
            if wave.is_empty() {
                break;
            }
            let trials: Vec<Vec<MarchElement>> =
                wave.iter().map(|(_, t)| t.clone()).collect();
            match scan_wave(oracle, cancel, &trials, goal) {
                WaveScan::Cancelled => return best,
                WaveScan::Accepted(pos) => {
                    let (i, trial) = wave.into_iter().nth(pos).expect("pos in wave");
                    best = trial;
                    upper = i;
                    changed = true;
                }
                WaveScan::Exhausted => break,
            }
        }
        if !changed {
            break;
        }
    }
    // Op-level removal inside each surviving element.
    loop {
        let mut changed = false;
        let mut cursor: Option<(usize, usize)> = None;
        loop {
            let wave = op_wave(&best, cursor);
            if wave.is_empty() {
                break;
            }
            let trials: Vec<Vec<MarchElement>> =
                wave.iter().map(|t| t.trial.clone()).collect();
            match scan_wave(oracle, cancel, &trials, goal) {
                WaveScan::Cancelled => return best,
                WaveScan::Accepted(pos) => {
                    let accepted = wave.into_iter().nth(pos).expect("pos in wave");
                    best = accepted.trial;
                    cursor = Some(accepted.resume);
                    changed = true;
                }
                WaveScan::Exhausted => break,
            }
        }
        if !changed {
            break;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbist_march::library;
    use mbist_mem::{FaultClass, MemGeometry};

    fn options() -> SearchOptions {
        SearchOptions {
            geometry: MemGeometry::bit_oriented(16),
            classes: vec![FaultClass::StuckAt, FaultClass::Transition],
            max_faults_per_class: 64,
            ..SearchOptions::default()
        }
    }

    fn elem(order: AddressOrder, ops: Vec<MarchOp>) -> Vec<MarchElement> {
        vec![MarchElement::new(order, ops)]
    }

    fn ops_of(elements: &[MarchElement]) -> usize {
        elements.iter().map(|e| e.ops().len()).sum()
    }

    #[test]
    fn memo_cap_holds_and_eviction_forces_reevaluation() {
        let opts = options();
        // Three equal-size single-op candidates, so the LRU's byte
        // accounting moves in whole-entry steps.
        let a = elem(AddressOrder::Up, vec![MarchOp::Write(true)]);
        let b = elem(AddressOrder::Down, vec![MarchOp::Write(true)]);
        let c = elem(AddressOrder::Up, vec![MarchOp::Write(false)]);
        let slot = std::mem::size_of::<MemoSlot>();
        let entry = canonical_key(&a).len() + slot;
        let cap = 2 * entry;

        let mut oracle = FitnessOracle::with_memo_capacity(&opts, cap);
        oracle.evaluate(&a);
        oracle.evaluate(&b);
        assert_eq!(oracle.evaluations(), 2);
        assert!(oracle.memo.bytes <= cap, "cap must hold after fills");
        oracle.evaluate(&a); // refresh A's recency
        assert_eq!(oracle.memo_hits(), 1);
        oracle.evaluate(&c); // evicts B (least recently used)
        assert_eq!(oracle.evaluations(), 3);
        assert!(oracle.memo.bytes <= cap, "cap must hold across eviction");
        oracle.evaluate(&b); // B was evicted: simulated again, not a hit
        assert_eq!(oracle.evaluations(), 4);
        assert_eq!(oracle.memo_hits(), 1, "an eviction must not count as a hit");
    }

    #[test]
    fn zero_capacity_disables_memoization() {
        let a = elem(AddressOrder::Up, vec![MarchOp::Write(true)]);
        let mut oracle = FitnessOracle::with_memo_capacity(&options(), 0);
        let f1 = oracle.evaluate(&a);
        let f2 = oracle.evaluate(&a);
        assert_eq!(f1, f2);
        assert_eq!(oracle.evaluations(), 2);
        assert_eq!(oracle.memo_hits(), 0);
        assert_eq!(oracle.memo.bytes, 0);
    }

    #[test]
    fn evaluations_exclude_memo_hits_across_evaluate_and_batch() {
        let mut oracle = FitnessOracle::new(&options());
        let a: Vec<MarchElement> = library::mats().elements().skip(1).cloned().collect();
        let b: Vec<MarchElement> = library::march_c().elements().skip(1).cloned().collect();
        let fa = oracle.evaluate(&a);
        assert_eq!((oracle.evaluations(), oracle.memo_hits()), (1, 0));
        let fits = oracle.evaluate_batch(&[a.clone(), b.clone(), a, b]);
        assert_eq!(oracle.evaluations(), 2, "only the unseen candidate simulates");
        assert_eq!(oracle.memo_hits(), 3, "one cross-call hit, two in-batch dups");
        assert_eq!(fits[0], fa);
        assert_eq!(fits[1], fits[3]);
    }

    #[test]
    fn batched_evaluation_leaves_identical_oracle_state_to_serial() {
        let opts = options();
        let candidates: Vec<Vec<MarchElement>> =
            library::all().iter().map(|t| t.elements().cloned().collect()).collect();
        let mut serial = FitnessOracle::new(&opts);
        let serial_fits: Vec<Fitness> =
            candidates.iter().map(|c| serial.evaluate(c)).collect();
        let mut batched = FitnessOracle::new(&opts);
        let batched_fits = batched.evaluate_batch(&candidates);
        assert_eq!(serial_fits, batched_fits);
        assert_eq!(serial.evaluations(), batched.evaluations());
        assert_eq!(serial.memo_hits(), batched.memo_hits());
    }

    #[test]
    fn pre_canonical_read_variants_share_one_memo_entry() {
        // Same candidate after read-expectation canonicalization: the keys
        // collide exactly because the memo hashes the canonical encoding,
        // not the as-written formatting.
        let mut oracle = FitnessOracle::new(&options());
        let a = elem(AddressOrder::Up, vec![MarchOp::Read(true), MarchOp::Write(true)]);
        let b = elem(AddressOrder::Up, vec![MarchOp::Read(false), MarchOp::Write(true)]);
        let fa = oracle.evaluate(&a);
        let fb = oracle.evaluate(&b);
        assert_eq!(fa, fb);
        assert_eq!(oracle.evaluations(), 1);
        assert_eq!(oracle.memo_hits(), 1);
    }

    #[test]
    fn canonical_keys_agree_exactly_with_canonical_notation() {
        let notation = |s: &[MarchElement]| {
            s.iter().map(ToString::to_string).collect::<Vec<_>>().join("; ")
        };
        let mut seqs: Vec<Vec<MarchElement>> = library::all()
            .iter()
            .map(|t| canonical_elements(&t.elements().cloned().collect::<Vec<_>>()))
            .collect();
        // Element-boundary aliasing probes: identical flat op strings,
        // different element splits — the per-element terminator byte must
        // keep their keys apart.
        seqs.push(vec![
            MarchElement::new(
                AddressOrder::Up,
                vec![MarchOp::Read(false), MarchOp::Write(true)],
            ),
            MarchElement::new(AddressOrder::Up, vec![MarchOp::Write(false)]),
        ]);
        seqs.push(vec![
            MarchElement::new(AddressOrder::Up, vec![MarchOp::Read(false)]),
            MarchElement::new(
                AddressOrder::Up,
                vec![MarchOp::Write(true), MarchOp::Write(false)],
            ),
        ]);
        for a in &seqs {
            for b in &seqs {
                assert_eq!(
                    canonical_key(a) == canonical_key(b),
                    notation(a) == notation(b),
                    "keys must collide exactly when canonical notation does:\n  {}\n  {}",
                    notation(a),
                    notation(b)
                );
            }
        }
    }

    #[test]
    fn shrink_cancellation_returns_best_so_far_at_every_budget() {
        let mut opts = options();
        opts.jobs = Some(1); // deterministic poll sequence for the sweep
                             // A redundant candidate: March C− plus junk sweeps to shed, so the
                             // shrink runs both an element pass and an op pass.
        let mut input: Vec<MarchElement> =
            library::march_c().elements().skip(1).cloned().collect();
        input.push(MarchElement::new(AddressOrder::Up, vec![MarchOp::Read(false)]));
        input.push(MarchElement::new(
            AddressOrder::Down,
            vec![MarchOp::Write(true), MarchOp::Write(false)],
        ));
        let input = canonical_elements(&input);

        let mut reference = FitnessOracle::new(&opts);
        let goal = reference.evaluate(&input).detected;
        let shrunk =
            shrink_elements(&mut reference, &CancelToken::none(), input.clone(), goal);
        let reference_evals = reference.evaluations();
        assert!(ops_of(&shrunk) < ops_of(&input), "the junk must actually shed");

        // Budgets chosen to trip inside the element pass (small), inside
        // the op pass (middle), and past the whole shrink (large).
        let mut prev_ops = usize::MAX;
        for checks in [0, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 10_000] {
            let mut oracle = FitnessOracle::new(&opts);
            assert_eq!(oracle.evaluate(&input).detected, goal);
            let cancel = CancelToken::after_checks(checks);
            let out = shrink_elements(&mut oracle, &cancel, input.clone(), goal);
            let fit = oracle.evaluate_exact(&out);
            assert!(
                fit.detected >= goal,
                "budget {checks}: best-so-far dropped below the goal"
            );
            assert!(ops_of(&out) <= ops_of(&input), "budget {checks}: grew");
            assert!(
                ops_of(&out) <= prev_ops,
                "budget {checks}: more budget must never shrink less"
            );
            assert!(
                oracle.evaluations() <= reference_evals,
                "budget {checks}: cancelled shrink simulated more than uncancelled"
            );
            prev_ops = ops_of(&out);
            if checks == 0 {
                assert_eq!(out, input, "zero budget must return the input untouched");
            }
            if checks == 10_000 {
                assert_eq!(out, shrunk, "a generous budget must finish the shrink");
                assert_eq!(oracle.evaluations(), reference_evals);
            }
        }
    }
}
