//! The daemon's cached connection workers, driven over real Unix
//! sockets against an in-process server (the `protocol_fuzz.rs`
//! harness shape).
//!
//! * a request train reuses a bounded set of workers instead of
//!   growing one thread per connection;
//! * a worker busy with a slow client never starves a queued
//!   connection: sixteen clients holding their connections open at
//!   once are all answered;
//! * once `serve()` returns, idle workers retire promptly and release
//!   their handle on the server.
//!
//! The tests share a lock: thread counts are process-wide, so no other
//! daemon of this binary may run while one is measured.

use membw::runner::{CancelReason, CancelToken};
use membw::service::{ServiceRequest, ServiceResponse, STATS_TARGET};
use membw_serve::{client, serve, Endpoint, ResultStore, ServeConfig, Server};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

static SERIAL: Mutex<()> = Mutex::new(());

struct Daemon {
    server: Arc<Server>,
    endpoint: Endpoint,
    socket: PathBuf,
    base: PathBuf,
    cancel: CancelToken,
    thread: JoinHandle<std::io::Result<u64>>,
}

impl Daemon {
    fn start(tag: &str) -> Daemon {
        let base =
            std::env::temp_dir().join(format!("membw_serve_workers_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        std::fs::create_dir_all(&base).unwrap();
        let socket = base.join("d.sock");
        let endpoint = Endpoint::Unix(socket.clone());
        let store = ResultStore::open(&base.join("store")).expect("open store");
        let server = Arc::new(Server::new(ServeConfig::default(), store));
        let cancel = CancelToken::new();
        let listener = endpoint.listen().expect("listen");
        let thread = {
            let srv = Arc::clone(&server);
            let token = cancel.clone();
            std::thread::spawn(move || serve(&srv, listener, &token))
        };
        assert!(
            client::wait_ready(&endpoint, Duration::from_secs(10)),
            "daemon never came up"
        );
        Daemon {
            server,
            endpoint,
            socket,
            base,
            cancel,
            thread,
        }
    }

    fn stats(&self) -> ServiceResponse {
        client::query(
            &self.endpoint,
            &ServiceRequest::new(STATS_TARGET),
            Some(Duration::from_secs(30)),
        )
        .expect("stats query")
    }

    /// Cancel the accept loop and wait for `serve()` to return.
    fn stop(self) -> Arc<Server> {
        self.cancel.cancel(CancelReason::Interrupted);
        self.thread.join().expect("serve thread").expect("serve");
        let _ = std::fs::remove_dir_all(&self.base);
        self.server
    }
}

fn thread_count() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("/proc/self/task")
        .count()
}

#[test]
fn a_request_train_reuses_a_bounded_set_of_workers() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let daemon = Daemon::start("train");
    // Warm up: the first connections spawn the workers the train needs.
    for _ in 0..20 {
        assert!(matches!(daemon.stats(), ServiceResponse::Stats(_)));
    }
    let before = thread_count();
    for i in 0..500 {
        match daemon.stats() {
            ServiceResponse::Stats(_) => {}
            other => panic!("query {i}: expected stats, got {other:?}"),
        }
    }
    let after = thread_count();
    assert!(
        after <= before + 4,
        "500 sequential queries grew the process from {before} to {after} threads"
    );
    daemon.stop();
}

#[test]
fn concurrent_slow_clients_are_all_served() {
    const CLIENTS: usize = 16;
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let daemon = Daemon::start("slow");
    let mut frame = serde_json::to_string(&ServiceRequest::new(STATS_TARGET))
        .expect("encode request")
        .into_bytes();
    frame.push(b'\n');
    let (head, tail) = frame.split_at(frame.len() / 2);
    let mid_frame = Barrier::new(CLIENTS);
    let answered = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let (socket, mid_frame, answered) = (&daemon.socket, &mid_frame, &answered);
                scope.spawn(move || {
                    // All clients stall mid-frame until every one is
                    // connected, then finish their frame and hold the
                    // connection open until every client has its reply.
                    // Each connection keeps a worker busy throughout, so
                    // the replies all arrive only if no queued
                    // connection waits for a busy worker to free up.
                    let mut s = UnixStream::connect(socket).expect("daemon socket");
                    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
                    s.write_all(head).expect("first half");
                    mid_frame.wait();
                    s.write_all(tail).expect("second half");
                    let mut line = String::new();
                    BufReader::new(&s).read_line(&mut line).expect("reply");
                    answered.fetch_add(1, Ordering::SeqCst);
                    let deadline = Instant::now() + Duration::from_secs(10);
                    while answered.load(Ordering::SeqCst) < CLIENTS && Instant::now() < deadline {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    let reply = serde_json::from_str::<ServiceResponse>(line.trim_end())
                        .expect("reply frame");
                    (reply, answered.load(Ordering::SeqCst))
                })
            })
            .collect();
        for (i, c) in clients.into_iter().enumerate() {
            let (reply, seen) = c.join().expect("client thread");
            assert!(
                matches!(reply, ServiceResponse::Stats(_)),
                "slow client {i}: expected stats, got {reply:?}"
            );
            assert_eq!(
                seen, CLIENTS,
                "slow client {i} closed before all were answered"
            );
        }
    });
    daemon.stop();
}

#[test]
fn idle_workers_retire_once_serve_returns() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let daemon = Daemon::start("retire");
    // Several workers at once, all idle by the time serve() returns.
    std::thread::scope(|scope| {
        for _ in 0..4 {
            scope.spawn(|| {
                for _ in 0..10 {
                    assert!(matches!(daemon.stats(), ServiceResponse::Stats(_)));
                }
            });
        }
    });
    let server = daemon.stop();
    let deadline = Instant::now() + Duration::from_secs(1);
    while Arc::strong_count(&server) > 1 {
        assert!(
            Instant::now() < deadline,
            "{} worker(s) still hold the server 1 s after serve() returned",
            Arc::strong_count(&server) - 1
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}
