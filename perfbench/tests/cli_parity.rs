//! The benchmark's in-process commands must answer exactly what the real
//! `datanet-cli` binary prints for the same files, so the benchmark times
//! the commands users run and cannot drift away from them.
//!
//! The test builds `datanet-cli` from the repository's workspace into its
//! own target directory, runs `gen`, `scan`, `query`, `plan`, `simulate`,
//! `pipeline` and `ingest` on a small generated dataset, and compares
//! every figure with the in-process commands'.

use datanet_perfbench::cli::{self, Planner};
use datanet_perfbench::trace::Tracer;
use std::path::{Path, PathBuf};
use std::process::Command;

const RECORDS: usize = 300;
const NODES: u32 = 8;
const BLOCK_KB: u64 = 4;
const SEED: u64 = 7;

/// Build the CLI once and return its path.
fn cli_binary() -> PathBuf {
    let repo = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let target = Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli-build");
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--bin",
            "datanet-cli",
            "--manifest-path",
        ])
        .arg(repo.join("Cargo.toml"))
        .env("CARGO_TARGET_DIR", &target)
        .status()
        .expect("cargo runs");
    assert!(status.success(), "building datanet-cli failed");
    target.join("release").join("datanet-cli")
}

fn run(bin: &Path, args: &[&str]) -> String {
    let out = Command::new(bin)
        .args(args)
        .output()
        .expect("datanet-cli runs");
    assert!(
        out.status.success(),
        "datanet-cli {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 output")
}

/// The token right after `label` in `text`, up to a space, a bracket or
/// a punctuation mark.
fn after<'a>(text: &'a str, label: &str) -> &'a str {
    let start = text
        .find(label)
        .unwrap_or_else(|| panic!("`{label}` not in:\n{text}"))
        + label.len();
    let rest = &text[start..];
    let end = rest
        .find(|c: char| c.is_whitespace() || matches!(c, ',' | ';' | '(' | ')' | '%'))
        .unwrap_or(rest.len());
    &rest[..end]
}

fn num<T: std::str::FromStr>(text: &str, label: &str) -> T
where
    T::Err: std::fmt::Debug,
{
    after(text, label).parse().expect("a number")
}

#[test]
fn in_process_commands_match_the_cli() {
    let bin = cli_binary();
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("parity-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let p = |name: &str| dir.join(name).to_string_lossy().into_owned();
    let t = &mut Tracer::off();

    // gen: the in-process command writes the same bytes.
    let (nodes, block_kb, seed, records) = (
        NODES.to_string(),
        BLOCK_KB.to_string(),
        SEED.to_string(),
        RECORDS.to_string(),
    );
    let ds_path = p("ds.json");
    run(
        &bin,
        &[
            "gen",
            "movies",
            "--records",
            &records,
            "--nodes",
            &nodes,
            "--block-kb",
            &block_kb,
            "--seed",
            &seed,
            "--out",
            &ds_path,
        ],
    );
    let ds = cli::gen_movies(RECORDS, NODES, BLOCK_KB, SEED, t);
    cli::save(&ds, &dir.join("in-process.json"), t).unwrap();
    assert_eq!(
        std::fs::read(&ds_path).unwrap(),
        std::fs::read(dir.join("in-process.json")).unwrap()
    );
    let ds_file = Path::new(&ds_path);

    // scan into separate replica pairs.
    let meta_cli = format!("{},{}", p("meta-cli-a"), p("meta-cli-b"));
    let scanned = run(&bin, &["scan", "--dataset", &ds_path, "--meta", &meta_cli]);
    let (ma, mb) = (dir.join("meta-inp-a"), dir.join("meta-inp-b"));
    let meta = [ma.as_path(), mb.as_path()];
    let s = cli::scan(ds_file, &meta, t).unwrap();
    assert_eq!(num::<usize>(&scanned, "scanned "), s.blocks);
    assert_eq!(num::<u64>(&scanned, "alpha=0.3: "), s.disk_bytes);
    assert_eq!(
        after(&scanned, "chi = "),
        format!("{:.1}", s.accuracy * 100.0)
    );

    // ingest into fresh replica pairs.
    let ing_cli = format!("{},{}", p("ing-cli-a"), p("ing-cli-b"));
    let out = run(&bin, &["ingest", "--dataset", &ds_path, "--meta", &ing_cli]);
    let (ia, ib) = (dir.join("ing-inp-a"), dir.join("ing-inp-b"));
    let d = cli::ingest(ds_file, &[ia.as_path(), ib.as_path()], t).unwrap();
    assert_eq!(num::<u64>(&out, "ingested "), d.stats.appended_blocks);
    assert_eq!(num::<u64>(&out, "blocks ("), d.stats.appended_records);
    assert_eq!(num::<u64>(&out, "records, "), d.stats.appended_bytes);
    assert_eq!(num::<u64>(&out, "  "), d.stats.compactions);
    assert_eq!(num::<u64>(&out, "compaction(s), "), d.stats.redominated);
    assert_eq!(num::<u64>(&out, "demotion(s), "), d.stats.epochs_committed);
    assert_eq!(num::<u64>(&out, "durable epoch "), d.epoch);
    for f in ["manifest.json", "epoch-0001.json"] {
        let cli_bytes = std::fs::read(Path::new(&p("ing-cli-a")).join(f));
        let inp_bytes = std::fs::read(ia.join(f));
        assert_eq!(cli_bytes.ok(), inp_bytes.ok(), "{f}");
    }

    let subs = datanet_perfbench::cold::ranked(&ds);
    for (k, &sub) in [subs[0], subs[subs.len() / 2]].iter().enumerate() {
        let id = sub.0.to_string();

        let q = run(
            &bin,
            &[
                "query",
                "--dataset",
                &ds_path,
                "--meta",
                &meta_cli,
                "--subdataset",
                &id,
            ],
        );
        let d = cli::query(ds_file, &meta, sub, t).unwrap();
        assert_eq!(num::<usize>(&q, ": "), d.view.block_count());
        assert_eq!(num::<u64>(&q, "estimated "), d.view.estimated_total());
        assert_eq!(num::<u64>(&q, "actual "), d.actual);
        assert_eq!(num::<u64>(&q, "delta = "), d.view.delta());

        for planner in [Planner::Alg1, Planner::MaxFlow] {
            let out = run(
                &bin,
                &[
                    "plan",
                    "--dataset",
                    &ds_path,
                    "--meta",
                    &meta_cli,
                    "--subdataset",
                    &id,
                    "--planner",
                    planner.as_str(),
                ],
            );
            let d = cli::plan(ds_file, &meta, sub, planner, t).unwrap();
            assert_eq!(num::<usize>(&out, "plan: "), d.tasks);
            assert_eq!(num::<usize>(&out, "tasks over "), d.nodes);
            assert_eq!(after(&out, "imbalance "), format!("{:.3}", d.imbalance));
            assert_eq!(
                after(&out, "locality "),
                format!("{:.0}", d.locality * 100.0)
            );
            for (n, w) in d.workloads.iter().enumerate() {
                let line = out
                    .lines()
                    .find(|l| l.trim_start().starts_with(&format!("node {n}:")))
                    .unwrap();
                assert_eq!(num::<u64>(line, "blocks, "), *w, "{planner:?} node {n}");
            }
        }

        let out = run(
            &bin,
            &[
                "simulate",
                "--dataset",
                &ds_path,
                "--subdataset",
                &id,
                "--job",
                "topk",
                "--shuffle",
                "aware",
            ],
        );
        let d = cli::simulate(ds_file, sub, t).unwrap();
        assert_eq!(
            after(&out, "improvement: "),
            format!("{:.1}", d.improvement_pct)
        );
        let line = |label: &str| out.lines().find(|l| l.contains(label)).unwrap().to_string();
        assert!(line("without DataNet").contains(&format!("= {:.3}s", d.without_secs)));
        assert!(line("with DataNet   ").contains(&format!("= {:.3}s", d.with_secs)));
        assert_eq!(num::<u64>(&out, "hash : "), d.hash_network_bytes);
        assert_eq!(num::<u64>(&out, "aware: "), d.aware_network_bytes);

        let ckpt_cli = format!(
            "{},{}",
            p(&format!("ckpt-cli-{k}-a")),
            p(&format!("ckpt-cli-{k}-b"))
        );
        let out = run(
            &bin,
            &[
                "pipeline",
                "--dataset",
                &ds_path,
                "--subdataset",
                &id,
                "--ckpt",
                &ckpt_cli,
                "--job",
                "wordcount",
            ],
        );
        let (ca, cb) = (
            dir.join(format!("ckpt-inp-{k}-a")),
            dir.join(format!("ckpt-inp-{k}-b")),
        );
        let d = cli::pipeline(ds_file, sub, &[ca.as_path(), cb.as_path()], t).unwrap();
        let stages = out
            .lines()
            .filter(|l| l.trim_start().starts_with("stage "))
            .count();
        assert_eq!(stages, d.stages, "{out}");
        let output = out.lines().find(|l| l.starts_with("output: ")).unwrap();
        assert_eq!(num::<u64>(output, "output: "), d.records);
        assert_eq!(num::<usize>(output, "record(s), "), d.aggregates);
        assert_eq!(after(output, "digest "), format!("{:#010x}", d.digest));
    }
    let _ = std::fs::remove_dir_all(&dir);
}
