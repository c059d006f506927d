//! Large replies must not wait on the peer's delayed ACK.
//!
//! The connection writer sends a reply line longer than its 8 KiB buffer
//! and the terminating `\n` as two writes. With Nagle's algorithm on, the
//! kernel holds the short second write until the first is acknowledged, and
//! a client with nothing to send delays that ACK (~40 ms on Linux). This
//! test drives an in-process daemon over loopback with a dozen sequential
//! streamed scenarios whose progress frames exceed 8 KiB, and times each
//! frame from its first byte to its newline. Without `TCP_NODELAY` on the
//! accepted socket, several of the ~50 large frames stall for ~40 ms; with
//! it, none does.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::thread;
use std::time::{Duration, Instant};

use wrsn_bench::service::server::{self, ServeConfig};

/// Replies longer than this are written in two parts.
const SPLIT_BYTES: usize = 8 * 1024;
/// A first-byte-to-newline time this long is a delayed-ACK stall: Linux's
/// minimum delayed-ACK timeout is 40 ms, and an unstalled reply takes a few
/// milliseconds at most even in a debug build.
const STALL: Duration = Duration::from_millis(30);

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wrsnd-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Boots `server::serve` on a free loopback port and connects to it.
fn start_daemon(store: PathBuf) -> (TcpStream, thread::JoinHandle<()>) {
    let port = TcpListener::bind("127.0.0.1:0")
        .and_then(|l| l.local_addr())
        .expect("pick a loopback port")
        .port();
    let addr = format!("127.0.0.1:{port}");
    let config = ServeConfig {
        listen: Some(addr.clone()),
        store_dir: store,
        workers: 1,
        default_deadline: Duration::from_secs(120),
        max_requests: None,
        queue_cap: 8,
        cache_cap_bytes: None,
        idle_timeout: None,
    };
    let handle = thread::spawn(move || server::serve(&config).expect("daemon runs"));
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match TcpStream::connect(&addr) {
            Ok(stream) => return (stream, handle),
            Err(e) if Instant::now() >= deadline => panic!("connect to {addr}: {e}"),
            Err(_) => thread::sleep(Duration::from_millis(2)),
        }
    }
}

/// Reads reply lines until one has a final status; returns, per line, its
/// length and the time from its first received byte to its newline.
fn read_until_final(stream: &mut TcpStream, pending: &mut Vec<u8>) -> Vec<(usize, Duration)> {
    let mut lines = Vec::new();
    let mut started = (!pending.is_empty()).then(Instant::now);
    let mut chunk = vec![0u8; 64 * 1024];
    loop {
        while let Some(nl) = pending.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = pending.drain(..=nl).collect();
            let now = Instant::now();
            lines.push((line.len() - 1, now - started.unwrap_or(now)));
            started = (!pending.is_empty()).then_some(now);
            if !String::from_utf8_lossy(&line).contains(r#""status":"progress""#) {
                return lines;
            }
        }
        let n = stream.read(&mut chunk).expect("read reply");
        assert!(n > 0, "daemon closed the connection");
        started.get_or_insert_with(Instant::now);
        pending.extend_from_slice(&chunk[..n]);
    }
}

#[test]
fn replies_longer_than_the_write_buffer_arrive_without_a_delayed_ack_stall() {
    let store = temp_dir("reply-latency");
    let (mut stream, daemon) = start_daemon(store.clone());
    stream.set_nodelay(true).expect("client nodelay");
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .expect("read timeout");
    let mut pending = Vec::new();
    let mut spans = Vec::new();
    for seed in 1..=12 {
        let line = format!(
            r#"{{"id":"s{seed}","scenario":{{"nodes":160,"seed":{seed},"horizon_s":2000000}},"stream":true}}"#
        );
        stream
            .write_all(format!("{line}\n").as_bytes())
            .expect("send");
        for (len, span) in read_until_final(&mut stream, &mut pending) {
            if len > SPLIT_BYTES {
                spans.push(span);
            }
        }
    }
    stream
        .write_all(b"{\"id\":\"bye\",\"op\":\"shutdown\"}\n")
        .expect("send shutdown");
    drop(stream);
    daemon.join().expect("daemon thread");
    let _ = std::fs::remove_dir_all(&store);

    assert!(
        spans.len() >= 8,
        "only {} replies exceeded {SPLIT_BYTES} bytes",
        spans.len()
    );
    let stalls: Vec<Duration> = spans.iter().copied().filter(|&s| s >= STALL).collect();
    // One stall is tolerated as a scheduling hiccup on a loaded host.
    assert!(
        stalls.len() <= 1,
        "{} of {} large replies waited >= {STALL:?} for their newline \
         (a delayed-ACK stall): {stalls:?}",
        stalls.len(),
        spans.len()
    );
}
