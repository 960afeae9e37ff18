//! Reference expansion of march tests into memory-operation streams.
//!
//! [`expand`] is the *specification* every BIST controller in this
//! workspace is verified against: the microcode controller, the
//! programmable FSM controller and the hardwired baselines must all emit
//! exactly this [`TestStep`] stream for a given algorithm and geometry.
//!
//! The looping structure matches the paper's §2: the whole algorithm is
//! repeated once per data background (inner loop) and once per port
//! (outer loop).

use mbist_mem::{BusCycle, MemGeometry, PortId, TestStep};
use mbist_rtl::Bits;

use crate::background::standard_backgrounds;
use crate::element::MarchItem;
use crate::test::MarchTest;

/// Options controlling expansion.
#[derive(Debug, Clone, PartialEq)]
pub struct ExpandOptions {
    /// Data backgrounds to loop over (relative value `0` writes the
    /// background, `1` writes its complement).
    pub backgrounds: Vec<Bits>,
    /// Ports to repeat the algorithm on.
    pub ports: Vec<PortId>,
}

impl ExpandOptions {
    /// The paper's default policy for a geometry: the standard background
    /// set for the word width, every port.
    #[must_use]
    pub fn for_geometry(geometry: &MemGeometry) -> Self {
        Self {
            backgrounds: standard_backgrounds(geometry.width()),
            ports: geometry.port_ids().collect(),
        }
    }

    /// Single background (all zeros), single port — the bit-oriented
    /// single-port configuration of the paper's Table 1.
    #[must_use]
    pub fn minimal(geometry: &MemGeometry) -> Self {
        Self { backgrounds: vec![Bits::zero(geometry.width())], ports: vec![PortId(0)] }
    }
}

/// Expands `test` over `geometry` with default options
/// ([`ExpandOptions::for_geometry`]).
///
/// # Examples
///
/// ```
/// use mbist_march::{expand, library};
/// use mbist_mem::MemGeometry;
///
/// let steps = expand(&library::march_c(), &MemGeometry::bit_oriented(4));
/// // 10 ops per cell × 4 cells, one background, one port
/// assert_eq!(steps.len(), 40);
/// ```
#[must_use]
pub fn expand(test: &MarchTest, geometry: &MemGeometry) -> Vec<TestStep> {
    expand_with(test, geometry, &ExpandOptions::for_geometry(geometry))
}

/// Expands `test` over `geometry` with explicit options.
///
/// # Panics
///
/// Panics if any background width differs from the geometry's word width,
/// or any port is out of range.
#[must_use]
pub fn expand_with(
    test: &MarchTest,
    geometry: &MemGeometry,
    options: &ExpandOptions,
) -> Vec<TestStep> {
    let mut steps = Vec::new();
    expand_into(test, geometry, options, &mut steps);
    steps
}

/// [`expand_with`] into a caller-owned buffer: the buffer is cleared and
/// refilled, so a scoring loop expanding thousands of candidates reuses
/// one allocation instead of growing a fresh `Vec` per candidate.
///
/// # Panics
///
/// Panics under the same conditions as [`expand_with`].
pub fn expand_into(
    test: &MarchTest,
    geometry: &MemGeometry,
    options: &ExpandOptions,
    steps: &mut Vec<TestStep>,
) {
    let passes = passes(geometry, options);
    steps.clear();
    steps.reserve(step_count(test, geometry, options));
    for (port, bg) in passes {
        expand_one_pass(test, geometry, port, bg, steps);
    }
}

/// The passes of an expansion in stream order — ports outer, backgrounds
/// inner — after the option checks [`expand_with`] panics on.
pub(crate) fn passes<'a>(
    geometry: &MemGeometry,
    options: &'a ExpandOptions,
) -> impl Iterator<Item = (PortId, Bits)> + 'a {
    for bg in &options.backgrounds {
        assert_eq!(bg.width(), geometry.width(), "background width mismatch");
    }
    for p in &options.ports {
        assert!(p.0 < geometry.ports(), "port {p} out of range");
    }
    options
        .ports
        .iter()
        .flat_map(|&port| options.backgrounds.iter().map(move |&bg| (port, bg)))
}

/// The length of an expansion: its [`cycle_count`] bus cycles plus one
/// step per pause per pass.
pub(crate) fn step_count(
    test: &MarchTest,
    geometry: &MemGeometry,
    options: &ExpandOptions,
) -> usize {
    let passes = options.ports.len() * options.backgrounds.len();
    let pauses =
        test.items().iter().filter(|i| matches!(i, MarchItem::Pause { .. })).count();
    let cycles = usize::try_from(cycle_count(test, geometry, options))
        .expect("cycle count fits usize");
    cycles + pauses * passes
}

fn expand_one_pass(
    test: &MarchTest,
    geometry: &MemGeometry,
    port: PortId,
    bg: Bits,
    steps: &mut Vec<TestStep>,
) {
    let n = geometry.words();
    for item in test.items() {
        match item {
            MarchItem::Pause { ns } => steps.push(TestStep::Pause { ns: *ns }),
            MarchItem::Element(e) => {
                let addrs: Box<dyn Iterator<Item = u64>> = match e.order().direction() {
                    mbist_rtl::Direction::Up => Box::new(0..n),
                    mbist_rtl::Direction::Down => Box::new((0..n).rev()),
                };
                for addr in addrs {
                    for op in e.ops() {
                        let word = if op.data() { !bg } else { bg };
                        let cycle = if op.is_write() {
                            BusCycle::write(port, addr, word)
                        } else {
                            BusCycle::read(port, addr, word)
                        };
                        steps.push(TestStep::Bus(cycle));
                    }
                }
            }
        }
    }
}

/// Counts the bus cycles (excluding pauses) of an expansion without
/// materializing it: `ops_per_cell × words × backgrounds × ports`.
#[must_use]
pub fn cycle_count(
    test: &MarchTest,
    geometry: &MemGeometry,
    options: &ExpandOptions,
) -> u64 {
    test.ops_per_cell() as u64
        * geometry.words()
        * options.backgrounds.len() as u64
        * options.ports.len() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::library;
    use mbist_mem::Operation;

    #[test]
    fn march_c_expansion_structure() {
        let g = MemGeometry::bit_oriented(3);
        let steps = expand(&library::march_c(), &g);
        assert_eq!(steps.len(), 30);
        // first element: w0 at 0,1,2
        for (i, s) in steps.iter().take(3).enumerate() {
            let c = s.as_bus().unwrap();
            assert_eq!(c.addr, i as u64);
            assert!(matches!(c.op, Operation::Write(d) if d.is_zero()));
        }
        // element 2 at addresses 0,1,2: r0 then w1
        let c = steps[3].as_bus().unwrap();
        assert!(c.op.is_read());
        assert_eq!(c.expected.unwrap().value(), 0);
        let c = steps[4].as_bus().unwrap();
        assert!(matches!(c.op, Operation::Write(d) if d.value() == 1));
    }

    #[test]
    fn down_elements_reverse_addresses() {
        let g = MemGeometry::bit_oriented(4);
        let steps = expand(&library::mats_plus(), &g);
        // 4 init + 8 up-element steps, then ⇓(r1,w0): 3,3,2,2,1,1,0,0
        let tail: Vec<u64> = steps[12..].iter().map(|s| s.as_bus().unwrap().addr).collect();
        assert_eq!(tail, vec![3, 3, 2, 2, 1, 1, 0, 0]);
    }

    #[test]
    fn pauses_appear_in_stream() {
        let g = MemGeometry::bit_oriented(2);
        let steps = expand(&library::march_c_plus(), &g);
        let pauses = steps.iter().filter(|s| matches!(s, TestStep::Pause { .. })).count();
        assert_eq!(pauses, 2);
    }

    #[test]
    fn word_oriented_loops_backgrounds() {
        let g = MemGeometry::word_oriented(4, 4);
        let steps = expand(&library::march_c(), &g);
        // 3 backgrounds for width 4
        assert_eq!(steps.len(), 10 * 4 * 3);
        // the second pass writes the checkerboard background
        let second_pass_first = steps[40].as_bus().unwrap();
        assert!(matches!(second_pass_first.op, Operation::Write(d) if d.value() == 0b1010));
    }

    #[test]
    fn multiport_repeats_per_port() {
        let g = MemGeometry::new(4, 1, 2);
        let steps = expand(&library::mats_plus(), &g);
        assert_eq!(steps.len(), 5 * 4 * 2);
        assert_eq!(steps[0].as_bus().unwrap().port, PortId(0));
        assert_eq!(steps[20].as_bus().unwrap().port, PortId(1));
    }

    #[test]
    fn cycle_count_matches_expansion() {
        let g = MemGeometry::word_oriented(8, 8);
        let opts = ExpandOptions::for_geometry(&g);
        let steps = expand_with(&library::march_a(), &g, &opts);
        let bus = steps.iter().filter(|s| s.as_bus().is_some()).count() as u64;
        assert_eq!(bus, cycle_count(&library::march_a(), &g, &opts));
    }

    #[test]
    fn expand_into_reuses_the_buffer_and_matches_expand_with() {
        let g = MemGeometry::bit_oriented(8);
        let opts = ExpandOptions::for_geometry(&g);
        let mut buf = Vec::new();
        expand_into(&library::march_c(), &g, &opts, &mut buf);
        assert_eq!(buf, expand_with(&library::march_c(), &g, &opts));
        // Refill with a different test: old content fully replaced.
        expand_into(&library::mats(), &g, &opts, &mut buf);
        assert_eq!(buf, expand_with(&library::mats(), &g, &opts));
    }

    #[test]
    fn minimal_options_use_one_background_one_port() {
        let g = MemGeometry::new(4, 8, 2);
        let steps = expand_with(&library::march_c(), &g, &ExpandOptions::minimal(&g));
        assert_eq!(steps.len(), 40);
    }

    #[test]
    #[should_panic(expected = "background width mismatch")]
    fn mismatched_background_panics() {
        let g = MemGeometry::word_oriented(4, 8);
        let opts =
            ExpandOptions { backgrounds: vec![Bits::zero(4)], ports: vec![PortId(0)] };
        let _ = expand_with(&library::march_c(), &g, &opts);
    }
}
