//! The line protocol's JSON at its edges: a hostile request line is a
//! plain `"ok": false` answer that leaves the daemon serving, and the
//! client's metrics document is the daemon's own rendering, byte for
//! byte.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use vpr_serve::{Client, ServeConfig, Server};

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vpr-serve-wire-json-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A child daemon, killed on drop: a stack overflow aborts the whole
/// process, so the hostile line is sent to a real `vpr-serve`.
struct Daemon(Child);

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

#[test]
fn a_deeply_nested_line_is_refused_and_the_daemon_keeps_serving() {
    let root = tmp("nesting");
    let socket = root.join("serve.sock");
    let _daemon = Daemon(
        Command::new(env!("CARGO_BIN_EXE_vpr-serve"))
            .arg("serve")
            .arg("--socket")
            .arg(&socket)
            .arg("--dir")
            .arg(root.join("state"))
            .arg("--workers")
            .arg("1")
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn vpr-serve"),
    );
    let mut client = Client::new(&socket);
    client.timeout = Duration::from_secs(30);
    client.metrics().expect("daemon comes up");

    let mut stream = UnixStream::connect(&socket).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let hostile = format!("{}\n", "[".repeat(100_000));
    stream.write_all(hostile.as_bytes()).unwrap();
    let mut response = String::new();
    BufReader::new(&stream).read_line(&mut response).unwrap();
    assert!(response.starts_with("{\"ok\": false"), "{response:?}");
    assert!(response.contains("nesting deeper"), "{response:?}");

    let (json, _) = client
        .metrics()
        .expect("daemon still serves after the hostile line");
    assert!(
        json.contains("\"vpr_serve_jobs_accepted_total\": 0"),
        "{json}"
    );
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn client_metrics_json_is_the_daemons_rendering() {
    let root = tmp("metrics");
    let socket = root.join("serve.sock");
    let mut cfg = ServeConfig::new(&socket, root.join("state"));
    cfg.workers = 1;
    let server = Server::start(cfg).expect("daemon starts");
    let (json, _) = Client::new(&socket).metrics().expect("metrics");
    // An idle daemon: the snapshot cannot move between the two reads.
    assert_eq!(json, server.metrics().to_json_value());
    assert!(json.contains("\"vpr_serve_queue_depth\": 0.0"), "{json}");
    server.stop();
    let _ = std::fs::remove_dir_all(&root);
}
