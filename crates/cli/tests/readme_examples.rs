//! Every `cargo run -p mbist-cli -- …` example in README.md must be an
//! invocation the CLI accepts: it may fail on execution (the README shows a
//! watchdog abort on purpose), but never with a usage error. `serve` lines
//! are skipped, since the daemon runs until told to stop.

use mbist_cli::CliError;

const README: &str = include_str!("../../../README.md");
const PREFIX: &str = "cargo run -p mbist-cli -- ";

/// The argument lists of the README's CLI examples: `\` continuations
/// joined, shell redirects (`> file`, `2>&1`, …) dropped.
fn readme_invocations() -> Vec<Vec<String>> {
    let joined = README.replace("\\\n", " ");
    joined
        .lines()
        .filter_map(|line| line.trim().strip_prefix(PREFIX))
        .map(|rest| {
            let mut args = Vec::new();
            let mut words = rest.split_whitespace();
            while let Some(word) = words.next() {
                let redirect = word.trim_start_matches(|c: char| c.is_ascii_digit());
                if redirect.starts_with('>') || redirect.starts_with('<') {
                    // A bare operator takes the next word as its target.
                    if matches!(redirect, ">" | ">>" | "<") {
                        words.next();
                    }
                    continue;
                }
                args.push(word.to_string());
            }
            args
        })
        .collect()
}

#[test]
fn readme_cli_examples_parse() {
    let invocations = readme_invocations();
    assert!(invocations.len() >= 10, "README examples not found: {invocations:?}");
    for args in
        invocations.iter().filter(|args| args.first().map(String::as_str) != Some("serve"))
    {
        if let Err(CliError::Usage(message)) = mbist_cli::run(args) {
            panic!("README example `{}` is a usage error: {message}", args.join(" "));
        }
    }
}
