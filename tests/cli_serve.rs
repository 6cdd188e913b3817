//! Smoke test of the `fairsqg serve` binary: there is one serving path,
//! with or without the retired `--mux` switch, and the client talks to it
//! in-process and through `fairsqg client`. Also: `fairsqg generate`
//! refuses out-of-range generation parameters with a usage error.

#![cfg(unix)]

use fairsqg::service::MuxClient;
use std::io::{BufRead, BufReader};
use std::process::{Child, ChildStderr, Command, Stdio};

/// The `fairsqg serve` child and its stderr (kept open so later
/// diagnostics have somewhere to go). Killed on drop, so a failed
/// assertion does not leave a server behind.
struct Served(Child, #[allow(dead_code)] BufReader<ChildStderr>);

impl Drop for Served {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Spawns `fairsqg serve` on an ephemeral port with `extra` flags and
/// returns it with the address from its `listening on <addr>` line.
fn serve(graph: &std::path::Path, extra: &[&str]) -> (Served, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_fairsqg"))
        .args(["serve", "--addr", "127.0.0.1:0", "--load"])
        .arg(format!("g={}", graph.display()))
        .args(extra)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn fairsqg serve");
    let mut stderr = BufReader::new(child.stderr.take().expect("stderr was piped"));
    let addr = (&mut stderr)
        .lines()
        .map_while(Result::ok)
        .find_map(|line| {
            line.split_once("listening on ")
                .map(|(_, addr)| addr.trim().to_string())
        })
        .expect("the server reports the address it listens on");
    (Served(child, stderr), addr)
}

#[test]
fn serve_answers_the_client_with_and_without_the_mux_flag() {
    let dir = std::env::temp_dir().join(format!("fairsqg-cli-serve-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let graph = dir.join("g.tsv");
    std::fs::write(&graph, "0\tdirector\tgender=1\n\n").unwrap();

    for extra in [&[][..], &["--mux", "on"][..]] {
        let (mut served, addr) = serve(&graph, extra);
        MuxClient::connect(&addr).unwrap().ping().unwrap();
        let ping = Command::new(env!("CARGO_BIN_EXE_fairsqg"))
            .args(["client", "--addr", &addr, "--op", "ping"])
            .output()
            .expect("run fairsqg client");
        assert!(ping.status.success(), "client --op ping exits 0");
        assert_eq!(
            String::from_utf8_lossy(&ping.stdout),
            "{\n  \"pong\": true\n}\n"
        );
        MuxClient::connect(&addr).unwrap().shutdown().unwrap();
        assert!(
            served.0.wait().unwrap().success(),
            "serve {extra:?} exits 0"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn generate_refuses_lambda_outside_the_unit_interval_and_a_nan_eps() {
    let dir = std::env::temp_dir().join(format!("fairsqg-cli-params-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let graph = dir.join("g.tsv");
    let mut tsv = String::new();
    for i in 0..6 {
        tsv += &format!("{i}\tdirector\tgender={}\n", i % 2);
    }
    for j in 0..6 {
        tsv += &format!("{}\tuser\tyearsOfExp={}\n", 6 + j, j + 1);
    }
    tsv += "\n";
    for j in 0..6 {
        tsv += &format!("{}\trecommend\t{}\n", 6 + j, j);
    }
    std::fs::write(&graph, tsv).unwrap();
    let template = dir.join("t.dsl");
    std::fs::write(
        &template,
        "node u0 : director\nnode u1 : user\nedge u1 -recommend-> u0\n\
         where u1.yearsOfExp >= ?\noutput u0\n",
    )
    .unwrap();
    let generate = |flags: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_fairsqg"))
            .arg("generate")
            .arg("--graph")
            .arg(&graph)
            .arg("--template")
            .arg(&template)
            .args(["--group-attr", "gender", "--cover", "1", "--format", "json"])
            .args(flags)
            .output()
            .expect("run fairsqg generate")
    };
    for lambda in ["0", "1"] {
        let out = generate(&["--lambda", lambda]);
        assert!(out.status.success(), "λ {lambda}: {out:?}");
    }
    for flags in [
        &["--lambda", "-0.1"][..],
        &["--lambda", "1.5"],
        &["--lambda", "3"],
        &["--lambda", "1e308"],
        &["--eps", "nan"],
        &["--eps", "0"],
    ] {
        let out = generate(flags);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{flags:?}: {stderr}");
        assert!(stderr.starts_with("error: "), "{flags:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{flags:?}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
