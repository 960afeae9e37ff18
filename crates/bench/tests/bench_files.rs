//! The committed benchmark reports are JSON: every `BENCH_*.json` at the
//! repository root must parse, so tools and docs can read them.

use std::fs;
use std::path::Path;

use mbist_service::json::Json;

#[test]
fn every_bench_file_at_the_repo_root_parses() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut files: Vec<_> = fs::read_dir(&root)
        .expect("read the repository root")
        .map(|entry| entry.expect("directory entry").path())
        .filter(|path| {
            path.file_name()
                .and_then(|name| name.to_str())
                .is_some_and(|name| name.starts_with("BENCH_") && name.ends_with(".json"))
        })
        .collect();
    files.sort();
    assert!(!files.is_empty(), "no BENCH_*.json files under {}", root.display());
    for path in &files {
        let text = fs::read_to_string(path).expect("read a bench file");
        if let Err(e) = Json::parse(&text) {
            panic!("{} does not parse: {e}", path.display());
        }
    }
}
