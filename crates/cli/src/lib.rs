//! # mbist-cli — command-line front end
//!
//! The command surface, testable as a library (`main.rs` is a thin shim):
//!
//! ```text
//! mbist algorithms
//! mbist show <algorithm>
//! mbist compile <algorithm> [--arch microcode|progfsm]
//! mbist run <algorithm> --words N [--width W] [--ports P]
//!           [--arch microcode|progfsm|hardwired] [--fault KIND@ADDR[.BIT]]
//!           [--cycle-budget C]
//! mbist inject-upset <algorithm> --words N [--bit B]... [--arch A]
//!           [--max-reloads R] [--cycle-budget C]
//! mbist coverage <algorithm> --words N [--max-faults K]
//! mbist area [--table 1|2|3]
//! mbist rtl <algorithm> [--capacity Z] [--words N] [--width W]
//! ```
//!
//! Errors exit with a class-specific status: 1 for execution failures, 2 for
//! usage errors, 4 for a watchdog abort, 5 for exhausted recovery.
//!
//! `<algorithm>` is a library name (`march-c`, `mats+`, …) or inline march
//! notation such as `"m(w0); u(r0,w1); d(r1,w0)"`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::error::Error;
use std::fmt;
use std::fmt::Write as _;

use mbist_area::{table1, table2, table3, Technology};
use mbist_core::{
    hardwired::HardwiredBist, microcode, microcode::MicrocodeBist, progfsm,
    progfsm::ProgFsmBist, BistController, BistUnit, CoreError, RecoveryPolicy,
    ScanRecoverable, SessionReport,
};
use mbist_march::{evaluate_coverage, library, CoverageOptions, MarchTest, SimEngine};
use mbist_mem::{FaultKind, MemGeometry, MemoryArray};

/// A user-facing CLI error, categorized so the binary can exit with a
/// distinct, scriptable status per failure class.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CliError {
    /// The invocation itself is wrong: unknown command or flag, missing or
    /// unparsable value. Exit code 2.
    Usage(String),
    /// The request was well-formed but could not be carried out (compile
    /// rejection, lint failure, injection error, …). Exit code 1.
    Failed(String),
    /// The watchdog aborted a bounded run
    /// ([`CoreError::CycleBudgetExceeded`]). Exit code 4.
    Watchdog(String),
    /// Scan-reload recovery exhausted its retry bound
    /// ([`CoreError::RecoveryFailed`]). Exit code 5.
    Recovery(String),
}

impl CliError {
    /// The process exit status this error maps to (never 0).
    #[must_use]
    pub fn exit_code(&self) -> i32 {
        match self {
            CliError::Failed(_) => 1,
            CliError::Usage(_) => 2,
            CliError::Watchdog(_) => 4,
            CliError::Recovery(_) => 5,
        }
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(m)
            | CliError::Failed(m)
            | CliError::Watchdog(m)
            | CliError::Recovery(m) => f.write_str(m),
        }
    }
}

impl Error for CliError {}

fn err(message: impl Into<String>) -> CliError {
    CliError::Usage(message.into())
}

fn failed(message: impl ToString) -> CliError {
    CliError::Failed(message.to_string())
}

/// Maps run-time core errors onto their CLI categories.
fn run_error(e: CoreError) -> CliError {
    match e {
        CoreError::CycleBudgetExceeded { .. } => CliError::Watchdog(e.to_string()),
        CoreError::RecoveryFailed { .. } => CliError::Recovery(e.to_string()),
        other => CliError::Failed(other.to_string()),
    }
}

/// The single pass over `--flag value` arguments every command shares:
/// rejects unknown `--flags` (typos must not silently fall back to
/// defaults) and flags whose value is missing, and returns the
/// `(flag, value)` pairs in invocation order so repeatable flags
/// (`--fault`, `--bit`) can be collected without re-scanning.
fn scan_flags<'a>(
    args: &[&'a str],
    allowed: &[&str],
) -> Result<Vec<(&'a str, &'a str)>, CliError> {
    let mut pairs = Vec::new();
    for (i, a) in args.iter().enumerate() {
        if !a.starts_with("--") {
            continue;
        }
        if !allowed.contains(a) {
            return Err(err(format!(
                "unknown flag `{a}` (allowed here: {})",
                if allowed.is_empty() { "none".to_string() } else { allowed.join(" ") }
            )));
        }
        match args.get(i + 1) {
            Some(v) => pairs.push((*a, *v)),
            None => return Err(err(format!("flag `{a}` needs a value"))),
        }
    }
    Ok(pairs)
}

/// [`scan_flags`] when only validation is needed.
fn check_flags(args: &[&str], allowed: &[&str]) -> Result<(), CliError> {
    scan_flags(args, allowed).map(|_| ())
}

/// Executes a CLI invocation (without the leading program name), returning
/// the text to print.
///
/// # Errors
///
/// Returns a [`CliError`] with a user-readable message on any misuse or
/// failure.
pub fn run(args: &[String]) -> Result<String, CliError> {
    let mut it = args.iter().map(String::as_str);
    match it.next() {
        None | Some("help" | "--help" | "-h") => Ok(usage()),
        Some("algorithms") => Ok(cmd_algorithms()),
        Some("show") => cmd_show(&collect(it)),
        Some("compile") => cmd_compile(&collect(it)),
        Some("run") => cmd_run(&collect(it)),
        Some("inject-upset") => cmd_inject_upset(&collect(it)),
        Some("coverage") => cmd_coverage(&collect(it)),
        Some("area") => cmd_area(&collect(it)),
        Some("rtl") => cmd_rtl(&collect(it)),
        Some("synth") => cmd_synth(&collect(it)),
        Some("synth-search") => cmd_synth_search(&collect(it)),
        Some("serve") => cmd_serve(&collect(it)),
        Some(other) => Err(err(format!("unknown command `{other}`; try `mbist help`"))),
    }
}

fn collect<'a>(it: impl Iterator<Item = &'a str>) -> Vec<&'a str> {
    it.collect()
}

fn usage() -> String {
    "\
mbist — programmable memory built-in self test (DATE 1999 reproduction)

commands:
  algorithms                          list the march algorithm library
  show <algorithm>                    print an algorithm in march notation
  compile <algorithm> [--arch A]      compile to microcode (default) or progfsm
  run <algorithm> --words N [opts]    run a BIST session on a simulated memory
      [--width W] [--ports P] [--arch microcode|progfsm|hardwired]
      [--fault KIND@ADDR[.BIT]]       KIND: sa0 sa1 tf-up tf-down sof drf puf
      [--cycle-budget C]              abort (exit 4) instead of hanging after
                                      C controller cycles
  inject-upset <algorithm> --words N  flip program-store bit(s), then detect
      [--bit B]... [--arch A]         via the integrity signature and recover
      [--max-reloads R]               by scan-reloading (exit 5 if recovery
      [--cycle-budget C]              fails; A: microcode|progfsm)
  coverage <algorithm> --words N      per-fault-class coverage (serial fault sim)
      [--max-faults K] [--jobs J]     J worker threads for the full engine
      [--engine full|packed]          (0 or absent = auto; packed runs on one
                                      thread); the report is identical for
                                      every J and engine (packed = default:
                                      batches 256 faults per replay into
                                      [u64; 4] lanes; full = one replay per
                                      fault, the oracle)
  area [--table 1|2|3]                regenerate the paper's tables
  rtl <algorithm> [--capacity Z]      emit Verilog for the microcode BIST unit
      [--words N] [--width W]
  synth --classes C1,C2,..            synthesize a minimal march test for a
      [--max-elements N] [--jobs J]   fault mix (saf tf af cfin cfid cfst)
      [--engine full|packed]
  synth-search --universe C1,C2,..    search for a minimal march test hitting a
      [--target-coverage PCT]         target coverage of the fault universe
      [--strategy evolve|compose]     (classes: saf tf af cfin cfid cfst sof
      [--budget B] [--seed S]         drf puf snpsf anpsf); deterministic in
      [--words N] [--width W]         --seed, scored by the packed engine
      [--ports P] [--max-elements N]  (default geometry 256x1, budget 2000,
      [--jobs J] [--engine E]         seed 1, target 100%)
  serve [--addr A] [--workers W]      run the evaluation daemon (line-delimited
      [--cache-bytes B]               JSON over TCP; default 127.0.0.1:1999);
      [--queue-depth D]               send {\"kind\":\"shutdown\"} to stop;
      [--default-deadline-ms T]       per-request deadline when the request
                                      carries none (0 = unlimited)
      [--chaos seed=S,panic=P,        deterministic fault injection for
       delay=D,drop=C]                resilience testing (also delay_ms, burst)
      [--shards N]                    N shard processes behind a consistent-
                                      hash router on --addr (0 = in-process)
      [--tenant-quota Q]              max in-flight requests per tenant at
                                      the router (sharded mode only)

<algorithm> is a library name (march-c, mats+, ...) or inline notation like
\"m(w0); u(r0,w1); d(r1,w0)\".

exit codes: 0 ok, 1 execution failure, 2 usage error, 4 watchdog abort,
5 recovery exhausted.
"
    .to_string()
}

fn resolve_test(spec: &str) -> Result<MarchTest, CliError> {
    if let Some(t) = library::by_name(spec) {
        return Ok(t);
    }
    if spec.contains('(') {
        return MarchTest::parse("custom", spec).map_err(|e| err(e.to_string()));
    }
    Err(err(format!(
        "unknown algorithm `{spec}` (see `mbist algorithms`, or pass march notation)"
    )))
}

fn flag_value<'a>(args: &[&'a str], name: &str) -> Option<&'a str> {
    args.iter().position(|a| *a == name).and_then(|i| args.get(i + 1).copied())
}

fn parse_flag<T: std::str::FromStr>(
    args: &[&str],
    name: &str,
    default: T,
) -> Result<T, CliError> {
    match flag_value(args, name) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| err(format!("invalid value `{v}` for {name}"))),
    }
}

/// `--jobs N` → worker-thread request: 0 (or absent) means "use the host's
/// available parallelism".
fn jobs_from(args: &[&str]) -> Result<Option<usize>, CliError> {
    let n: usize = parse_flag(args, "--jobs", 0)?;
    Ok(if n == 0 { None } else { Some(n) })
}

/// `--engine full|packed` → fault-simulation engine (packed by default:
/// up to 256 compatible faults per trace replay in `[u64; 4]` lanes; the
/// output is identical for every choice).
fn engine_from(args: &[&str]) -> Result<SimEngine, CliError> {
    match flag_value(args, "--engine") {
        None => Ok(SimEngine::default()),
        Some(name) => SimEngine::parse_name(name)
            .ok_or_else(|| err(format!("unknown --engine `{name}` (full|packed)"))),
    }
}

fn geometry_from(args: &[&str]) -> Result<MemGeometry, CliError> {
    let words: u64 = match flag_value(args, "--words") {
        Some(v) => v.parse().map_err(|_| err(format!("invalid --words `{v}`")))?,
        None => return Err(err("--words N is required")),
    };
    let width: u8 = parse_flag(args, "--width", 1)?;
    let ports: u8 = parse_flag(args, "--ports", 1)?;
    if words == 0 || width == 0 || width > 64 || ports == 0 {
        return Err(err("geometry out of range (words ≥ 1, 1 ≤ width ≤ 64, ports ≥ 1)"));
    }
    Ok(MemGeometry::new(words, width, ports))
}

fn cmd_algorithms() -> String {
    let mut out = String::new();
    let _ =
        writeln!(out, "{:<12} {:>6} {:>9} {:>8}", "name", "ops/n", "elements", "pauses");
    for t in library::all() {
        let _ = writeln!(
            out,
            "{:<12} {:>6} {:>9} {:>8}",
            t.name(),
            t.ops_per_cell(),
            t.element_count(),
            t.pause_count()
        );
    }
    out
}

fn cmd_show(args: &[&str]) -> Result<String, CliError> {
    check_flags(args, &[])?;
    let spec = args.first().ok_or_else(|| err("usage: mbist show <algorithm>"))?;
    let t = resolve_test(spec)?;
    Ok(format!("{t}\n"))
}

fn cmd_compile(args: &[&str]) -> Result<String, CliError> {
    check_flags(args, &["--arch"])?;
    let spec = args.first().ok_or_else(|| err("usage: mbist compile <algorithm>"))?;
    let t = resolve_test(spec)?;
    match flag_value(args, "--arch").unwrap_or("microcode") {
        "microcode" => {
            let program = microcode::compile(&t).map_err(failed)?;
            Ok(format!(
                "; {} → {} microinstructions\n{}",
                t,
                program.len(),
                microcode::disassemble(&program)
            ))
        }
        "progfsm" => {
            let program = progfsm::compile(&t).map_err(failed)?;
            let mut out = format!("; {} → {} component instructions\n", t, program.len());
            for (i, inst) in program.iter().enumerate() {
                let _ = writeln!(out, "{i:>3}: {inst}");
            }
            Ok(out)
        }
        other => Err(err(format!("unknown --arch `{other}` (microcode|progfsm)"))),
    }
}

/// Parses the `--fault` spec syntax, shared with the service protocol via
/// [`FaultKind::parse_spec`].
fn parse_fault(spec: &str, geometry: &MemGeometry) -> Result<FaultKind, CliError> {
    FaultKind::parse_spec(spec, geometry).map_err(err)
}

/// Parses the optional `--cycle-budget` watchdog flag.
fn budget_from(args: &[&str]) -> Result<Option<u64>, CliError> {
    match flag_value(args, "--cycle-budget") {
        None => Ok(None),
        Some(v) => {
            v.parse().map(Some).map_err(|_| err(format!("invalid --cycle-budget `{v}`")))
        }
    }
}

/// Runs one session, unbounded or under the watchdog, mapping
/// [`CoreError::CycleBudgetExceeded`] to [`CliError::Watchdog`].
fn bounded_session<C: BistController>(
    mut unit: BistUnit<C>,
    mem: &mut MemoryArray,
    budget: Option<u64>,
) -> Result<SessionReport, CliError> {
    match budget {
        None => Ok(unit.run(mem)),
        Some(b) => unit.run_bounded(mem, b).map_err(run_error),
    }
}

fn cmd_run(args: &[&str]) -> Result<String, CliError> {
    let flags = scan_flags(
        args,
        &["--words", "--width", "--ports", "--arch", "--fault", "--cycle-budget"],
    )?;
    let spec = args.first().ok_or_else(|| err("usage: mbist run <algorithm> --words N"))?;
    let t = resolve_test(spec)?;
    let geometry = geometry_from(args)?;
    let mut mem = MemoryArray::new(geometry);
    for (_, value) in flags.iter().filter(|(name, _)| *name == "--fault") {
        let fault = parse_fault(value, &geometry)?;
        mem.inject(fault).map_err(failed)?;
    }
    let budget = budget_from(args)?;

    let arch = flag_value(args, "--arch").unwrap_or("microcode");
    let report = match arch {
        "microcode" => bounded_session(
            MicrocodeBist::for_test(&t, &geometry).map_err(failed)?,
            &mut mem,
            budget,
        )?,
        "progfsm" => bounded_session(
            ProgFsmBist::for_test(&t, &geometry).map_err(failed)?,
            &mut mem,
            budget,
        )?,
        "hardwired" => {
            bounded_session(HardwiredBist::for_test(&t, &geometry), &mut mem, budget)?
        }
        other => {
            return Err(err(format!(
                "unknown --arch `{other}` (microcode|progfsm|hardwired)"
            )))
        }
    };

    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} `{}` on {}: {}",
        report.architecture,
        report.algorithm,
        geometry,
        if report.passed() { "PASS" } else { "FAIL" }
    );
    let _ = writeln!(
        out,
        "cycles {} (bus {}, overhead {}), pause {:.1} us",
        report.cycles,
        report.bus_cycles,
        report.overhead_cycles(),
        report.pause_ns / 1000.0
    );
    if !report.passed() {
        let _ = writeln!(out, "miscompares: {}", report.fail_log.len());
        for (cycle, m) in report.fail_log.entries().iter().take(8) {
            let _ = writeln!(out, "  cycle {cycle:>8}: {m}");
        }
        let bitmap = report.fail_log.bitmap(geometry);
        let _ = writeln!(out, "signature: {:?}", bitmap.signature());
        let _ = write!(out, "{bitmap}");
    }
    Ok(out)
}

fn cmd_inject_upset(args: &[&str]) -> Result<String, CliError> {
    let flags = scan_flags(
        args,
        &[
            "--words",
            "--width",
            "--ports",
            "--arch",
            "--bit",
            "--max-reloads",
            "--cycle-budget",
        ],
    )?;
    let spec = args
        .first()
        .ok_or_else(|| err("usage: mbist inject-upset <algorithm> --words N [--bit B]"))?;
    let t = resolve_test(spec)?;
    let geometry = geometry_from(args)?;
    let mut bits = Vec::new();
    for (_, v) in flags.iter().filter(|(name, _)| *name == "--bit") {
        bits.push(v.parse().map_err(|_| err(format!("invalid --bit `{v}`")))?);
    }
    if bits.is_empty() {
        bits.push(0);
    }
    let policy = RecoveryPolicy {
        max_reload_attempts: parse_flag(args, "--max-reloads", 3)?,
        cycle_budget: budget_from(args)?,
    };
    match flag_value(args, "--arch").unwrap_or("microcode") {
        "microcode" => upset_session(
            MicrocodeBist::for_test(&t, &geometry).map_err(failed)?,
            &geometry,
            &bits,
            &policy,
        ),
        "progfsm" => upset_session(
            ProgFsmBist::for_test(&t, &geometry).map_err(failed)?,
            &geometry,
            &bits,
            &policy,
        ),
        "hardwired" => Err(err(
            "the hardwired controller has no program store to upset (microcode|progfsm)",
        )),
        other => Err(err(format!("unknown --arch `{other}` (microcode|progfsm)"))),
    }
}

/// Flips `bits` in the unit's program store, reports whether the integrity
/// signature catches the corruption, then runs protected (scan-reload
/// recovery under the watchdog budget).
fn upset_session<C: BistController + ScanRecoverable>(
    mut unit: BistUnit<C>,
    geometry: &MemGeometry,
    bits: &[usize],
    policy: &RecoveryPolicy,
) -> Result<String, CliError> {
    let store_bits = unit.controller().store_bits();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} program store: {} bits, load-time signature {}",
        unit.controller().architecture(),
        store_bits,
        unit.controller().loaded_signature()
    );
    for &bit in bits {
        if bit >= store_bits {
            return Err(err(format!(
                "--bit {bit} is outside the {store_bits}-bit program store"
            )));
        }
        unit.controller_mut().inject_upset(bit);
    }
    let detected = unit.controller().verify_integrity().is_err();
    let _ = writeln!(
        out,
        "upset: flipped bit(s) {:?}, store signature now {} ({})",
        bits,
        unit.controller().store_signature(),
        if detected {
            "detected"
        } else {
            "NOT DETECTED — even flips per parity column alias"
        }
    );
    let mut mem = MemoryArray::new(*geometry);
    let (report, recovery) = unit.run_protected(&mut mem, policy).map_err(run_error)?;
    let _ = writeln!(out, "recovery: {recovery}");
    let _ = writeln!(
        out,
        "session: {} in {} cycles (bus {})",
        if report.passed() { "PASS" } else { "FAIL" },
        report.cycles,
        report.bus_cycles
    );
    Ok(out)
}

fn cmd_coverage(args: &[&str]) -> Result<String, CliError> {
    check_flags(
        args,
        &["--words", "--width", "--ports", "--max-faults", "--jobs", "--engine"],
    )?;
    let spec =
        args.first().ok_or_else(|| err("usage: mbist coverage <algorithm> --words N"))?;
    let t = resolve_test(spec)?;
    let geometry = geometry_from(args)?;
    let max: usize = parse_flag(args, "--max-faults", 256)?;
    let report = evaluate_coverage(
        &t,
        &geometry,
        &CoverageOptions {
            max_faults_per_class: Some(max),
            jobs: jobs_from(args)?,
            engine: engine_from(args)?,
            ..CoverageOptions::default()
        },
    );
    Ok(report.to_string())
}

fn cmd_area(args: &[&str]) -> Result<String, CliError> {
    check_flags(args, &["--table"])?;
    let tech = Technology::cmos5s();
    match flag_value(args, "--table") {
        None => Ok(format!("{}\n{}\n{}", table1(&tech), table2(&tech), table3(&tech))),
        Some("1") => Ok(table1(&tech).to_string()),
        Some("2") => Ok(table2(&tech).to_string()),
        Some("3") => Ok(table3(&tech).to_string()),
        Some(other) => Err(err(format!("unknown table `{other}` (1|2|3)"))),
    }
}

fn cmd_rtl(args: &[&str]) -> Result<String, CliError> {
    check_flags(args, &["--capacity", "--words", "--width"])?;
    let spec = args.first().ok_or_else(|| err("usage: mbist rtl <algorithm>"))?;
    let t = resolve_test(spec)?;
    let program = microcode::compile(&t).map_err(failed)?;
    let z: usize = parse_flag(args, "--capacity", program.len().max(16))?;
    let words: u64 = parse_flag(args, "--words", 1024)?;
    let width: u8 = parse_flag(args, "--width", 8)?;
    let geometry = MemGeometry::word_oriented(words, width);

    let ctrl = mbist_hdl::emit_microcode(z, "mbist_microcode_ctrl");
    let dp = mbist_hdl::emit_datapath(&geometry, "mbist_datapath");
    let top = mbist_hdl::emit_top(&geometry, "mbist_top");
    for m in [&ctrl, &dp, &top] {
        let issues = mbist_hdl::lint(m);
        if !issues.is_empty() {
            return Err(failed(format!("generated RTL failed lint: {}", issues[0])));
        }
    }
    let tb = mbist_hdl::emit_testbench(&t, &geometry, z, "mbist_top").map_err(failed)?;
    Ok(format!("{}\n{}\n{}\n{}", ctrl.emit(), dp.emit(), top.emit(), tb))
}

fn cmd_synth(args: &[&str]) -> Result<String, CliError> {
    use mbist_march::{synthesize_march, SynthesisOptions};
    use mbist_mem::FaultClass;
    check_flags(args, &["--classes", "--max-elements", "--jobs", "--engine"])?;
    let spec = flag_value(args, "--classes")
        .ok_or_else(|| err("usage: mbist synth --classes saf,tf,af"))?;
    let classes = FaultClass::parse_list(spec).map_err(err)?;
    let max_elements: usize = parse_flag(args, "--max-elements", 8)?;
    let mut options =
        SynthesisOptions { classes, max_elements, ..SynthesisOptions::default() };
    options.coverage.jobs = jobs_from(args)?;
    options.coverage.engine = engine_from(args)?;
    let result = synthesize_march("synthesized", &options);
    let mut out = String::new();
    let _ = writeln!(out, "{}", result.test);
    let _ = writeln!(
        out,
        "complexity {}n, coverage {}/{} on the search geometry, {} evaluations",
        result.test.ops_per_cell(),
        result.detected,
        result.total,
        result.evaluations
    );
    if !result.is_complete() {
        let _ = writeln!(out, "warning: coverage incomplete; raise --max-elements");
    }
    Ok(out)
}

fn cmd_synth_search(args: &[&str]) -> Result<String, CliError> {
    use mbist_mem::FaultClass;
    use mbist_search::{report_text, search_march, SearchOptions, Strategy};
    check_flags(
        args,
        &[
            "--universe",
            "--words",
            "--width",
            "--ports",
            "--target-coverage",
            "--budget",
            "--seed",
            "--strategy",
            "--max-elements",
            "--jobs",
            "--engine",
        ],
    )?;
    let spec = flag_value(args, "--universe")
        .ok_or_else(|| err("usage: mbist synth-search --universe saf,tf,cfin,cfid,cfst"))?;
    let classes = FaultClass::parse_list(spec).map_err(err)?;
    let words: u64 = parse_flag(args, "--words", 256)?;
    let width: u8 = parse_flag(args, "--width", 1)?;
    let ports: u8 = parse_flag(args, "--ports", 1)?;
    if words == 0 || width == 0 || width > 64 || ports == 0 {
        return Err(err("geometry out of range (words ≥ 1, 1 ≤ width ≤ 64, ports ≥ 1)"));
    }
    let target_pct: f64 = parse_flag(args, "--target-coverage", 100.0)?;
    if !(0.0..=100.0).contains(&target_pct) {
        return Err(err(format!("--target-coverage must be 0–100, got {target_pct}")));
    }
    let strategy = match flag_value(args, "--strategy") {
        None => Strategy::Evolutionary,
        Some(name) => Strategy::parse_name(name)
            .ok_or_else(|| err(format!("unknown --strategy `{name}` (evolve|compose)")))?,
    };
    let options = SearchOptions {
        geometry: MemGeometry::new(words, width, ports),
        classes,
        target_coverage: target_pct / 100.0,
        budget: parse_flag(args, "--budget", 2000)?,
        seed: parse_flag(args, "--seed", 1)?,
        max_elements: parse_flag(args, "--max-elements", 12)?,
        jobs: jobs_from(args)?,
        engine: engine_from(args)?,
        strategy,
        ..SearchOptions::default()
    };
    let found = search_march("found", &options);
    Ok(report_text(&found, &options))
}

fn cmd_serve(args: &[&str]) -> Result<String, CliError> {
    check_flags(
        args,
        &[
            "--addr",
            "--workers",
            "--cache-bytes",
            "--queue-depth",
            "--default-deadline-ms",
            "--chaos",
            "--shards",
            "--tenant-quota",
        ],
    )?;
    let addr = flag_value(args, "--addr").unwrap_or("127.0.0.1:1999");
    let chaos = match flag_value(args, "--chaos") {
        Some(spec) => mbist_service::ChaosConfig::parse(spec).map_err(err)?,
        None => mbist_service::ChaosConfig::disabled(),
    };
    let config = mbist_service::ServiceConfig {
        workers: parse_flag(args, "--workers", 0)?,
        cache_bytes: parse_flag(args, "--cache-bytes", 64 << 20)?,
        queue_depth: parse_flag(args, "--queue-depth", 64)?,
        default_deadline_ms: parse_flag(args, "--default-deadline-ms", 30_000)?,
        chaos,
    };
    let shards: usize = parse_flag(args, "--shards", 0)?;
    if shards > 0 {
        return cmd_serve_sharded(args, shards, addr, &config);
    }
    let server = mbist_service::Server::start(addr, config)
        .map_err(|e| failed(format!("cannot bind `{addr}`: {e}")))?;
    // Announced (and flushed) before blocking: the return value below only
    // prints after shutdown, and scripts parse the port from this line.
    {
        use std::io::Write;
        let mut stdout = std::io::stdout();
        let _ = writeln!(
            stdout,
            "mbist-service listening on {} (workers {}, cache {} bytes, queue depth {})",
            server.local_addr(),
            if config.workers == 0 {
                "auto".to_string()
            } else {
                config.workers.to_string()
            },
            config.cache_bytes,
            config.queue_depth,
        );
        if chaos.enabled() {
            let _ = writeln!(stdout, "chaos injection armed: {}", chaos.describe());
        }
        let _ = stdout.flush();
    }
    let summary = server.join();
    Ok(format!(
        "shutdown: served {} request(s), drained {} queued job(s), \
         recovered {} panicked job(s)\n",
        summary.served, summary.drained, summary.recovered_jobs
    ))
}

/// `serve --shards N`: spawns N single-shard daemon processes on ephemeral
/// ports (re-invoking this binary) and fronts them with the
/// consistent-hash router on the requested address.
fn cmd_serve_sharded(
    args: &[&str],
    shards: usize,
    addr: &str,
    config: &mbist_service::ServiceConfig,
) -> Result<String, CliError> {
    use std::io::{BufRead, BufReader, Write};
    use std::process::{Child, Command, Stdio};

    let exe = std::env::current_exe()
        .map_err(|e| failed(format!("cannot locate own binary: {e}")))?;
    let mut children: Vec<(Child, BufReader<std::process::ChildStdout>)> = Vec::new();
    let mut shard_addrs = Vec::new();
    let spawn_error = |children: &mut Vec<(Child, _)>, message: String| {
        for (child, _) in children.iter_mut() {
            let _ = child.kill();
            let _ = child.wait();
        }
        failed(message)
    };
    for i in 0..shards {
        let mut cmd = Command::new(&exe);
        cmd.arg("serve")
            .arg("--addr")
            .arg("127.0.0.1:0")
            .arg("--workers")
            .arg(config.workers.to_string())
            .arg("--cache-bytes")
            .arg(config.cache_bytes.to_string())
            .arg("--queue-depth")
            .arg(config.queue_depth.to_string())
            .arg("--default-deadline-ms")
            .arg(config.default_deadline_ms.to_string());
        if let Some(spec) = flag_value(args, "--chaos") {
            cmd.arg("--chaos").arg(spec);
        }
        cmd.stdin(Stdio::null()).stdout(Stdio::piped()).stderr(Stdio::inherit());
        let mut child = cmd.spawn().map_err(|e| {
            spawn_error(&mut children, format!("cannot spawn shard {i}: {e}"))
        })?;
        let stdout = child.stdout.take().expect("piped stdout");
        let mut reader = BufReader::new(stdout);
        // The shard announces its ephemeral port on the first banner line.
        let mut banner = String::new();
        reader
            .read_line(&mut banner)
            .map_err(|e| spawn_error(&mut children, format!("shard {i} banner: {e}")))?;
        let shard_addr = banner
            .strip_prefix("mbist-service listening on ")
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|a| a.parse::<std::net::SocketAddr>().ok())
            .ok_or_else(|| {
                spawn_error(
                    &mut children,
                    format!("shard {i} printed no address: {banner:?}"),
                )
            })?;
        shard_addrs.push(shard_addr);
        children.push((child, reader));
    }

    let router_config = mbist_service::RouterConfig {
        shards: shard_addrs,
        tenant_quota: match flag_value(args, "--tenant-quota") {
            Some(v) => Some(
                v.parse::<usize>()
                    .map_err(|_| err(format!("invalid --tenant-quota `{v}`")))?,
            ),
            None => None,
        },
        ..mbist_service::RouterConfig::default()
    };
    let router = mbist_service::Router::start(addr, router_config)
        .map_err(|e| failed(format!("cannot bind `{addr}`: {e}")))?;
    {
        let mut stdout = std::io::stdout();
        let _ = writeln!(
            stdout,
            "mbist-service listening on {} (router fronting {} shard(s))",
            router.local_addr(),
            shards,
        );
        if config.chaos.enabled() {
            let _ = writeln!(stdout, "chaos injection armed: {}", config.chaos.describe());
        }
        let _ = stdout.flush();
    }
    let summary = router.join();
    // The router's shutdown broadcast has already told every shard to
    // drain; collect their exits (and summaries) before reporting.
    let mut shard_served = 0u64;
    for (mut child, reader) in children {
        for line in reader.lines().map_while(Result::ok) {
            if let Some(rest) = line.strip_prefix("shutdown: served ") {
                if let Some(n) = rest.split_whitespace().next() {
                    shard_served += n.parse::<u64>().unwrap_or(0);
                }
            }
        }
        let _ = child.wait();
    }
    Ok(format!(
        "shutdown: served {} request(s), drained 0 queued job(s), \
         recovered 0 panicked job(s)\n\
         router: forwarded {} request(s), shed {} request(s), \
         shards answered {} request(s)\n",
        summary.served, summary.forwarded, summary.shed, shard_served
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_ok(args: &[&str]) -> String {
        match run(&args.iter().map(ToString::to_string).collect::<Vec<_>>()) {
            Ok(out) => out,
            Err(e) => panic!(
                "expected success for {args:?}, got `{e}` (exit code {})",
                e.exit_code()
            ),
        }
    }

    fn run_err(args: &[&str]) -> CliError {
        run(&args.iter().map(ToString::to_string).collect::<Vec<_>>())
            .expect_err("command should fail")
    }

    #[test]
    fn help_and_unknown_commands() {
        assert!(run_ok(&["help"]).contains("commands:"));
        assert!(run_ok(&[]).contains("mbist"));
        assert!(run_err(&["frob"]).to_string().contains("unknown command"));
    }

    #[test]
    fn algorithms_lists_the_library() {
        let out = run_ok(&["algorithms"]);
        assert!(out.contains("march-c"));
        assert!(out.contains("march-ss"));
    }

    #[test]
    fn show_prints_notation() {
        let out = run_ok(&["show", "march-c"]);
        assert!(out.contains("⇕(w0)"));
        assert!(run_err(&["show", "nope"]).to_string().contains("unknown algorithm"));
    }

    #[test]
    fn compile_both_architectures() {
        let out = run_ok(&["compile", "march-c"]);
        assert!(out.contains("repeat(order)"));
        let out = run_ok(&["compile", "march-c", "--arch", "progfsm"]);
        assert!(out.contains("SM1"));
        let e = run_err(&["compile", "march-b", "--arch", "progfsm"]);
        assert!(e.to_string().contains("not expressible"));
    }

    #[test]
    fn compile_inline_notation() {
        let out = run_ok(&["compile", "m(w0); u(r0,w1); d(r1,w0)"]);
        assert!(out.contains("custom"));
    }

    #[test]
    fn run_pass_and_fail() {
        let out = run_ok(&["run", "march-c", "--words", "32"]);
        assert!(out.contains("PASS"));
        let out = run_ok(&["run", "march-c", "--words", "32", "--fault", "sa1@0x5"]);
        assert!(out.contains("FAIL"));
        assert!(out.contains("SingleCell"));
    }

    #[test]
    fn run_architecture_selection() {
        for arch in ["microcode", "progfsm", "hardwired"] {
            let out = run_ok(&["run", "mats+", "--words", "16", "--arch", arch]);
            assert!(out.contains("PASS"), "{arch}: {out}");
        }
    }

    #[test]
    fn run_word_oriented_fault_with_bit() {
        let out = run_ok(&[
            "run",
            "march-c",
            "--words",
            "16",
            "--width",
            "8",
            "--fault",
            "tf-up@3.6",
        ]);
        assert!(out.contains("FAIL"));
    }

    #[test]
    fn run_rejects_bad_inputs() {
        assert!(run_err(&["run", "march-c"]).to_string().contains("--words"));
        assert!(run_err(&["run", "march-c", "--words", "8", "--fault", "zz@1"])
            .to_string()
            .contains("unknown fault kind"));
        assert!(run_err(&["run", "march-c", "--words", "8", "--fault", "sa1@99"])
            .to_string()
            .contains("does not fit"));
    }

    #[test]
    fn coverage_reports_classes() {
        let out = run_ok(&["coverage", "mats+", "--words", "16", "--max-faults", "32"]);
        assert!(out.contains("SAF"));
        assert!(out.contains("%"));
    }

    #[test]
    fn coverage_output_is_independent_of_jobs() {
        let base = ["coverage", "march-c", "--words", "16", "--max-faults", "32"];
        let with_jobs = |j: &str| {
            let mut args = base.to_vec();
            args.extend(["--jobs", j]);
            run_ok(&args)
        };
        let serial = with_jobs("1");
        assert_eq!(with_jobs("2"), serial);
        assert_eq!(with_jobs("0"), serial, "0 = auto must match too");
        assert_eq!(run_ok(&base), serial, "flag absent = auto");
        assert!(run_err(&["coverage", "march-c", "--words", "8", "--jobs", "x"])
            .to_string()
            .contains("--jobs"));
    }

    #[test]
    fn coverage_output_is_independent_of_engine() {
        let base = ["coverage", "march-c", "--words", "16", "--max-faults", "32"];
        let with_engine = |e: &str| {
            let mut args = base.to_vec();
            args.extend(["--engine", e]);
            run_ok(&args)
        };
        let full = with_engine("full");
        assert_eq!(with_engine("packed"), full);
        assert_eq!(run_ok(&base), full, "flag absent = packed default");
        let e = run_err(&["coverage", "march-c", "--words", "8", "--engine", "turbo"]);
        assert!(e.to_string().contains("--engine"), "{e}");
        assert_eq!(e.exit_code(), 2);
    }

    #[test]
    fn retired_sliced_engine_is_a_usage_error() {
        let e = run_err(&["coverage", "march-c", "--words", "8", "--engine", "sliced"]);
        assert_eq!(e.exit_code(), 2);
        assert!(e.to_string().contains("full|packed"), "{e}");
    }

    #[test]
    fn area_tables() {
        assert!(run_ok(&["area", "--table", "1"]).contains("Microcode-Based"));
        assert!(run_ok(&["area", "--table", "3"]).contains("Adjusted"));
        let all = run_ok(&["area"]);
        assert!(all.contains("Table 1") && all.contains("Table 3"));
        assert!(run_err(&["area", "--table", "9"]).to_string().contains("unknown table"));
    }

    #[test]
    fn synth_produces_a_complete_test() {
        let out = run_ok(&["synth", "--classes", "saf,tf"]);
        assert!(out.contains("synthesized:"));
        assert!(out.contains("coverage"));
        assert!(!out.contains("warning"));
        assert!(run_err(&["synth", "--classes", "zzz"])
            .to_string()
            .contains("unknown fault class"));
        assert!(run_err(&["synth"]).to_string().contains("--classes"));
    }

    #[test]
    fn synth_search_converges_on_a_small_universe() {
        let out = run_ok(&[
            "synth-search",
            "--universe",
            "saf,tf",
            "--words",
            "32",
            "--budget",
            "300",
        ]);
        assert!(out.contains("found:"), "{out}");
        assert!(out.contains("converged"), "{out}");
        assert!(out.contains("strategy evolve, seed 1"), "{out}");
    }

    #[test]
    fn synth_search_strategies_and_errors() {
        let out = run_ok(&[
            "synth-search",
            "--universe",
            "saf,af",
            "--words",
            "32",
            "--strategy",
            "compose",
        ]);
        assert!(out.contains("strategy compose"), "{out}");
        assert!(run_err(&["synth-search"]).to_string().contains("--universe"));
        assert!(run_err(&["synth-search", "--universe", "zzz"])
            .to_string()
            .contains("unknown fault class"));
        let e = run_err(&["synth-search", "--universe", "saf", "--strategy", "anneal"]);
        assert!(e.to_string().contains("unknown --strategy"), "{e}");
        let e = run_err(&["synth-search", "--universe", "saf", "--target-coverage", "150"]);
        assert!(e.to_string().contains("0–100"), "{e}");
        assert_eq!(e.exit_code(), 2);
    }

    /// Same `--seed` must print byte-identical output for every worker
    /// count and engine — the CLI-level determinism contract.
    #[test]
    fn synth_search_output_is_independent_of_jobs_and_engine() {
        let base = [
            "synth-search",
            "--universe",
            "saf,tf,cfid",
            "--words",
            "32",
            "--budget",
            "300",
            "--seed",
            "9",
        ];
        let with = |extra: &[&str]| {
            let mut args = base.to_vec();
            args.extend_from_slice(extra);
            run_ok(&args)
        };
        let reference = with(&["--jobs", "1"]);
        assert_eq!(with(&["--jobs", "3"]), reference, "--jobs must not change output");
        assert_eq!(with(&["--engine", "packed"]), reference);
        assert_eq!(with(&["--engine", "full"]), reference, "engine must not either");
        assert_eq!(with(&[]), reference, "defaults match too");
    }

    #[test]
    fn exit_codes_follow_the_error_category() {
        // usage errors exit 2
        assert_eq!(run_err(&["frob"]).exit_code(), 2);
        assert_eq!(run_err(&["run", "march-c"]).exit_code(), 2);
        // execution failures exit 1
        assert_eq!(run_err(&["compile", "march-b", "--arch", "progfsm"]).exit_code(), 1);
    }

    #[test]
    fn unknown_flags_are_rejected_not_defaulted() {
        let e = run_err(&["run", "march-c", "--wrods", "8"]);
        assert!(e.to_string().contains("unknown flag `--wrods`"), "{e}");
        assert_eq!(e.exit_code(), 2);
        let e = run_err(&["compile", "march-c", "--arch"]);
        assert!(e.to_string().contains("needs a value"), "{e}");
        let e = run_err(&["area", "--table", "1", "--tble", "2"]);
        assert!(e.to_string().contains("unknown flag"), "{e}");
    }

    #[test]
    fn run_cycle_budget_watchdog() {
        let out = run_ok(&["run", "march-c", "--words", "16", "--cycle-budget", "100000"]);
        assert!(out.contains("PASS"));
        let e = run_err(&["run", "march-c", "--words", "16", "--cycle-budget", "10"]);
        assert_eq!(e.exit_code(), 4, "watchdog abort has its own exit code");
        assert!(e.to_string().contains("cycle budget"), "{e}");
        let e = run_err(&["run", "march-c", "--words", "16", "--cycle-budget", "x"]);
        assert_eq!(e.exit_code(), 2);
    }

    #[test]
    fn inject_upset_detects_and_recovers_on_both_architectures() {
        for arch in ["microcode", "progfsm"] {
            let out = run_ok(&[
                "inject-upset",
                "march-c",
                "--words",
                "16",
                "--arch",
                arch,
                "--bit",
                "5",
            ]);
            assert!(out.contains("(detected)"), "{arch}: {out}");
            assert!(out.contains("1 reload(s)"), "{arch}: {out}");
            assert!(out.contains("PASS"), "{arch}: {out}");
        }
    }

    #[test]
    fn inject_upset_exhausted_retries_exit_distinctly() {
        let e = run_err(&[
            "inject-upset",
            "march-c",
            "--words",
            "16",
            "--bit",
            "5",
            "--max-reloads",
            "0",
        ]);
        assert_eq!(e.exit_code(), 5);
        assert!(e.to_string().contains("scan-reload"), "{e}");
    }

    #[test]
    fn inject_upset_even_flips_per_column_alias_the_signature() {
        // flipping the same bit twice restores the store; the signature
        // cannot see it (its documented blind spot) and the clean program
        // runs without recovery
        let out = run_ok(&[
            "inject-upset",
            "march-c",
            "--words",
            "16",
            "--bit",
            "5",
            "--bit",
            "5",
        ]);
        assert!(out.contains("NOT DETECTED"), "{out}");
        assert!(out.contains("0 reload(s)"), "{out}");
        assert!(out.contains("PASS"), "{out}");
    }

    #[test]
    fn inject_upset_rejects_bad_targets() {
        let e =
            run_err(&["inject-upset", "march-c", "--words", "16", "--arch", "hardwired"]);
        assert!(e.to_string().contains("no program store"), "{e}");
        assert_eq!(e.exit_code(), 2);
        let e = run_err(&["inject-upset", "march-c", "--words", "16", "--bit", "99999"]);
        assert!(e.to_string().contains("outside"), "{e}");
    }

    #[test]
    fn rtl_emits_all_modules_and_testbench() {
        let out = run_ok(&["rtl", "march-c", "--words", "64", "--width", "4"]);
        assert!(out.contains("module mbist_microcode_ctrl"));
        assert!(out.contains("module mbist_datapath"));
        assert!(out.contains("module mbist_top"));
        assert!(out.contains("module tb;"));
        assert!(out.contains("MBIST_PASS"));
    }
}
