//! The in-process daemon and the two clients the benchmark drives it
//! with: the public `submit` (untraced runs) and a raw
//! `write_frame`/`read_frame` client that timestamps every frame
//! (traced runs).

use crate::gen::{Kind, MixGen};
use crate::spans::{SpanId, Tracer};
use aceso_obs::ObsReport;
use aceso_serve::{
    read_frame, server_stats, shutdown, submit, write_frame, Request, ServeOptions, Server,
};
use aceso_util::json::{ToJson, Value};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A daemon serving from a thread of this process, with its store and
/// spool directories under one work directory.
pub struct Daemon {
    addr: String,
    handle: JoinHandle<ObsReport>,
    dir: PathBuf,
}

impl Daemon {
    /// Binds an ephemeral port with the default front end, a store and a
    /// spool under `dir`, and a profile cache of `cache_bytes`.
    pub fn start(dir: &Path, cache_bytes: u64) -> Result<Self, String> {
        let _ = std::fs::remove_dir_all(dir);
        let (store, spool) = (dir.join("store"), dir.join("spool"));
        for d in [&store, &spool] {
            std::fs::create_dir_all(d).map_err(|e| format!("create {}: {e}", d.display()))?;
        }
        let opts = ServeOptions {
            cache_bytes,
            store_dir: Some(store),
            spool_dir: Some(spool),
            ..ServeOptions::default()
        };
        let server = Server::bind("127.0.0.1:0", opts).map_err(|e| format!("bind: {e}"))?;
        let addr = server.local_addr().to_string();
        let handle = std::thread::spawn(move || server.run());
        Ok(Self {
            addr,
            handle,
            dir: dir.to_path_buf(),
        })
    }

    /// The daemon's address.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// The server-level counters of the `stats` frame.
    pub fn stats(&self) -> Result<Value, String> {
        server_stats(&self.addr).map_err(|e| format!("stats: {e}"))
    }

    /// Drains the daemon, joins its thread and removes its directory.
    pub fn stop(self) -> Result<(), String> {
        shutdown(&self.addr).map_err(|e| format!("shutdown: {e}"))?;
        self.handle
            .join()
            .map_err(|_| "daemon thread panicked".to_string())?;
        let _ = std::fs::remove_dir_all(&self.dir);
        Ok(())
    }
}

/// A counter from a metrics snapshot (`stats` frame or result frame).
pub fn counter(metrics: &Value, name: &str) -> f64 {
    metrics
        .get("counters")
        .and_then(|c| c.get(name))
        .and_then(|v| v.as_u64().ok())
        .map_or(0.0, |v| v as f64)
}

/// Client-side timestamps of one traced request, seconds.
#[derive(Debug, Clone, Copy)]
pub struct Phases {
    /// Request written → `profiling` status: framing and admission.
    pub admit_s: f64,
    /// `profiling` → `searching`: cache, store or build.
    pub profile_s: f64,
    /// `searching` → first event: the search.
    pub search_s: f64,
    /// First event → result frame: event streaming and result encode.
    pub stream_s: f64,
    /// Event frames received.
    pub events: usize,
    /// Response bytes received.
    pub bytes: usize,
}

/// What one served request returned.
#[derive(Debug)]
pub struct Served {
    /// Client latency, seconds.
    pub latency_s: f64,
    /// `best_time_bits` of the result frame.
    pub best_time_bits: u64,
    /// `best_fingerprint` of the result frame.
    pub fingerprint: u64,
    /// `explored` of the result frame.
    pub explored: u64,
    /// Server-side search wall time (`wall_time_secs` of its metrics).
    pub server_search_s: f64,
    /// Frame timings, raw client only.
    pub phases: Option<Phases>,
}

fn served_from_result(
    result: &Value,
    latency_s: f64,
    phases: Option<Phases>,
) -> Result<Served, String> {
    let u = |k: &str| {
        result
            .get(k)
            .and_then(|v| v.as_u64().ok())
            .ok_or(format!("result frame lacks {k}"))
    };
    Ok(Served {
        latency_s,
        best_time_bits: u("best_time_bits")?,
        fingerprint: u("best_fingerprint")?,
        explored: u("explored")?,
        server_search_s: result
            .get("metrics")
            .and_then(|m| m.get("wall_time_secs"))
            .and_then(|v| v.as_f64().ok())
            .ok_or("result frame lacks metrics.wall_time_secs")?,
        phases,
    })
}

/// Submits through the public client.
pub fn submit_plain(addr: &str, req: &Request) -> Result<Served, String> {
    let t = Instant::now();
    let resp = submit(addr, req).map_err(|e| e.to_string())?;
    served_from_result(&resp.result, t.elapsed().as_secs_f64(), None)
}

/// Counts the bytes read through a stream.
struct Counting<S> {
    inner: S,
    read: usize,
}

impl<S: Read> Read for Counting<S> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.read += n;
        Ok(n)
    }
}

impl<S: Write> Write for Counting<S> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.inner.write(buf)
    }
    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

/// Submits through raw frames, timestamping each phase and recording a
/// `serve.request` span (id `request_no`) with one child per phase.
pub fn submit_raw(
    addr: &str,
    req: &Request,
    tracer: &Tracer,
    parent: Option<SpanId>,
    request_no: u64,
) -> Result<Served, String> {
    let mut stream = Counting {
        inner: TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?,
        read: 0,
    };
    let t0 = Instant::now();
    write_frame(&mut stream, &req.to_json_value()).map_err(|e| e.to_string())?;
    let (mut t_prof, mut t_search, mut t_event) = (None, None, None);
    let mut events = 0usize;
    let result = loop {
        let frame = read_frame(&mut stream).map_err(|e| e.to_string())?;
        let now = Instant::now();
        match frame.get("type").and_then(|t| t.as_str().ok()) {
            Some("status") => match frame.get("phase").and_then(|p| p.as_str().ok()) {
                Some("profiling") => t_prof = Some(now),
                Some("searching") => t_search = Some(now),
                _ => {}
            },
            Some("event") => {
                t_event.get_or_insert(now);
                events += 1;
            }
            Some("result") => break frame,
            Some("error") => return Err(format!("server error: {}", frame.to_string_compact())),
            other => return Err(format!("unexpected frame type {other:?}")),
        }
    };
    let t_end = Instant::now();
    let t_prof = t_prof.ok_or("no profiling status")?;
    let t_search = t_search.ok_or("no searching status")?;
    let t_event = t_event.unwrap_or(t_end);
    let span = tracer.record("serve.request", t0, t_end, parent, Some(request_no));
    for (name, a, b) in [
        ("serve.admit", t0, t_prof),
        ("serve.profile", t_prof, t_search),
        ("serve.search", t_search, t_event),
        ("serve.stream", t_event, t_end),
    ] {
        tracer.record(name, a, b, span, Some(request_no));
    }
    let secs = |a: Instant, b: Instant| b.saturating_duration_since(a).as_secs_f64();
    let phases = Phases {
        admit_s: secs(t0, t_prof),
        profile_s: secs(t_prof, t_search),
        search_s: secs(t_search, t_event),
        stream_s: secs(t_event, t_end),
        events,
        bytes: stream.read,
    };
    served_from_result(&result, secs(t0, t_end), Some(phases))
}

/// One request of a mix and what came back.
pub struct Record {
    /// What the request exercises.
    pub kind: Kind,
    /// The request.
    pub req: Request,
    /// The response, or why there was none.
    pub outcome: Result<Served, String>,
}

/// How long a closed-loop mix runs.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    /// Run at least this long...
    pub min: Duration,
    /// ...and until this many requests completed...
    pub min_requests: usize,
    /// ...but never longer than this.
    pub max: Duration,
}

/// Runs `clients` closed-loop clients against `addr`, each submitting
/// the next request of `gen` once its previous one completed, until
/// `window` ends. Traced runs use the raw client. Returns the records
/// and the elapsed time, seconds.
pub fn run_mix(
    addr: &str,
    gen: &Mutex<MixGen>,
    clients: usize,
    window: Window,
    tracer: &Tracer,
    parent: Option<SpanId>,
) -> (Vec<Record>, f64) {
    let start = Instant::now();
    let done = AtomicUsize::new(0);
    let issued = AtomicUsize::new(0);
    let records = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for _ in 0..clients {
            s.spawn(|| loop {
                let elapsed = start.elapsed();
                let enough =
                    elapsed >= window.min && done.load(Ordering::SeqCst) >= window.min_requests;
                if enough || elapsed >= window.max {
                    return;
                }
                let (kind, req) = gen
                    .lock()
                    .expect("generator lock poisoned")
                    .next()
                    .expect("the mix is endless");
                let no = issued.fetch_add(1, Ordering::SeqCst) as u64;
                let outcome = if tracer.enabled() {
                    submit_raw(addr, &req, tracer, parent, no)
                } else {
                    submit_plain(addr, &req)
                };
                done.fetch_add(1, Ordering::SeqCst);
                records
                    .lock()
                    .expect("record lock poisoned")
                    .push(Record { kind, req, outcome });
            });
        }
    });
    let elapsed = start.elapsed().as_secs_f64();
    (records.into_inner().expect("record lock poisoned"), elapsed)
}

/// The `serve` and `store` per-layer figures of some served requests
/// (traced, so each carries its [`Phases`]) and the daemon's `stats`
/// counters afterwards.
pub fn layer_metrics(served: &[&Served], stats: &Value) -> Vec<(&'static str, f64)> {
    let phases: Vec<Phases> = served.iter().filter_map(|s| s.phases).collect();
    let n = phases.len().max(1) as f64;
    let mean_ms = |f: fn(&Phases) -> f64| phases.iter().map(f).sum::<f64>() / n * 1e3;
    let latency: f64 = served.iter().map(|s| s.latency_s).sum();
    let searching: f64 = served.iter().map(|s| s.server_search_s).sum();
    let hits = counter(stats, "profile_cache_hits");
    let misses = counter(stats, "profile_cache_misses");
    vec![
        ("serve.requests", phases.len() as f64),
        ("serve.admit_ms", mean_ms(|p| p.admit_s)),
        ("serve.profile_ms", mean_ms(|p| p.profile_s)),
        ("serve.search_ms", mean_ms(|p| p.search_s)),
        ("serve.stream_ms", mean_ms(|p| p.stream_s)),
        (
            "serve.overhead_share",
            crate::stats::ratio(latency - searching, latency),
        ),
        (
            "serve.cache_hit_ratio",
            crate::stats::ratio(hits, hits + misses),
        ),
        (
            "serve.events_per_req",
            phases.iter().map(|p| p.events as f64).sum::<f64>() / n,
        ),
        (
            "serve.bytes_per_req",
            phases.iter().map(|p| p.bytes as f64).sum::<f64>() / n,
        ),
        ("serve.rejected", counter(stats, "serve_rejected")),
        (
            "serve.checkpoints_written",
            counter(stats, "checkpoints_written"),
        ),
        ("store.hits", counter(stats, "store_hits")),
        ("store.misses", counter(stats, "store_misses")),
        ("store.writes", counter(stats, "store_writes")),
    ]
}
