//! The run shape every workload shares: set-up, warm-up, timed phase, drain,
//! verify. The phases are generic over [`Spans`] so the traced run executes
//! the same code as the measured one.

use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use crate::engine::{Result, Store};
use crate::gen::{
    check_value, decode_key, encode_key, fill_value, Op, ValueFault, RECORD_LEN, VALUE_LEN,
};
use crate::os;
use crate::trace::{NoSpans, SpanName, Spans, NO_PARENT};
use crate::workload::{ReadKind, Workload, CLIENTS, SCAN_LEN, WARMUP_PERCENT};

/// After drain the database is closed and reopened this many times; the
/// median is `reopen_ms`.
const REOPEN_REPEATS: usize = 15;

/// One key in this many is read back after the last reopen.
const VERIFY_STRIDE: u64 = 64;

/// How often the sampler measures the database directory during the timed
/// phase.
const SAMPLE_EVERY: Duration = Duration::from_millis(50);

/// A phase that runs this many times longer than `--seconds` is cut short, so
/// a slow host cannot push a run past the driver's time limit.
const DEADLINE_FACTOR: u32 = 3;

/// One closed-loop client: its share of the keyspace and what it has measured.
pub struct Client {
    id: u64,
    /// Last acknowledged version of each key this client owns, by slot.
    versions: Vec<u32>,
    pub read_ns: Vec<u32>,
    pub write_ns: Vec<u32>,
    pub attempted: u64,
    pub failed: u64,
    /// Puts the store acknowledged.
    pub acked_puts: u64,
    /// Entries scans returned.
    pub scanned_entries: u64,
    /// Ops left unexecuted because the phase hit its deadline.
    pub cut_ops: u64,
}

fn clamp_ns(elapsed: Duration) -> u32 {
    u32::try_from(elapsed.as_nanos()).unwrap_or(u32::MAX)
}

impl Client {
    fn new(id: u64, slots: u64) -> Self {
        Client {
            id,
            versions: vec![0; slots as usize],
            read_ns: Vec::new(),
            write_ns: Vec::new(),
            attempted: 0,
            failed: 0,
            acked_puts: 0,
            scanned_entries: 0,
            cut_ops: 0,
        }
    }

    /// The value `key` must hold is exact for a key this client owns (it is
    /// the only writer and waits for each reply); for any other key only the
    /// value's integrity can be checked.
    fn version_ok(&self, key: u64, checked: std::result::Result<u64, ValueFault>) -> bool {
        match checked {
            Err(_) => false,
            Ok(version) => {
                key % CLIENTS != self.id
                    || version == u64::from(self.versions[(key / CLIENTS) as usize])
            }
        }
    }

    fn get<S: Spans>(&mut self, store: &Store, key: u64, spans: &mut S) -> bool {
        let root = spans.open(SpanName::OpGet, NO_PARENT);
        let key_bytes = encode_key(key);
        let call = spans.open(SpanName::DbGet, root);
        let started = Instant::now();
        let result = store.get(&key_bytes);
        self.read_ns.push(clamp_ns(started.elapsed()));
        spans.close(call);
        let check = spans.open(SpanName::Verify, root);
        let ok = match result {
            Ok(Some(value)) => self.version_ok(key, check_value(&value, key)),
            _ => false,
        };
        spans.close(check);
        spans.close(root);
        ok
    }

    fn put<S: Spans>(&mut self, store: &Store, key: u64, spans: &mut S) -> bool {
        let root = spans.open(SpanName::OpPut, NO_PARENT);
        let slot = (key / CLIENTS) as usize;
        let version = self.versions[slot] + 1;
        let mut value = [0u8; VALUE_LEN];
        fill_value(&mut value, key, u64::from(version));
        let key_bytes = encode_key(key);
        let call = spans.open(SpanName::DbPut, root);
        let started = Instant::now();
        let result = store.put(&key_bytes, &value);
        self.write_ns.push(clamp_ns(started.elapsed()));
        spans.close(call);
        let ok = result.is_ok();
        if ok {
            self.versions[slot] = version;
            self.acked_puts += 1;
        }
        spans.close(root);
        ok
    }

    /// Reads `SCAN_LEN` entries from `start`. The keyspace is dense, so the
    /// scan must return exactly `start, start + 1, ...` until it ends.
    fn scan<S: Spans>(&mut self, store: &Store, start: u64, keys: u64, spans: &mut S) -> bool {
        let root = spans.open(SpanName::OpScan, NO_PARENT);
        let start_bytes = encode_key(start);
        let mut entries = Vec::with_capacity(SCAN_LEN);
        let started = Instant::now();
        let open = spans.open(SpanName::DbScanOpen, root);
        let scan = store.scan_from(&start_bytes);
        spans.close(open);
        let drain = spans.open(SpanName::IteratorDrain, root);
        let mut complete = scan.is_ok();
        if let Ok(scan) = scan {
            for item in scan.take(SCAN_LEN) {
                match item {
                    Ok(entry) => entries.push(entry),
                    Err(_) => complete = false,
                }
            }
        }
        self.read_ns.push(clamp_ns(started.elapsed()));
        spans.close(drain);
        let check = spans.open(SpanName::Verify, root);
        self.scanned_entries += entries.len() as u64;
        let expected = (keys - start).min(SCAN_LEN as u64);
        let ok = complete
            && entries.len() as u64 == expected
            && entries.iter().zip(start..).all(|((key, value), index)| {
                decode_key(key) == Some(index) && self.version_ok(index, check_value(value, index))
            });
        spans.close(check);
        spans.close(root);
        ok
    }

    fn run<S: Spans>(
        &mut self,
        store: &Store,
        workload: &Workload,
        ops: &[Op],
        spans: &mut S,
        deadline: Instant,
    ) {
        for (done, &op) in ops.iter().enumerate() {
            if Instant::now() >= deadline {
                self.cut_ops += (ops.len() - done) as u64;
                break;
            }
            let ok = match (op.is_write(), workload.read_kind) {
                (true, _) => self.put(store, op.key(), spans),
                (false, ReadKind::Get) => self.get(store, op.key(), spans),
                (false, ReadKind::Scan) => self.scan(store, op.key(), workload.keys, spans),
            };
            self.attempted += 1;
            self.failed += u64::from(!ok);
        }
    }
}

/// All clients' latencies of one op class, sorted.
pub fn merged(clients: &[Client], class: impl Fn(&Client) -> &Vec<u32>) -> Vec<u32> {
    let mut all: Vec<u32> = clients.iter().flat_map(|c| class(c).iter().copied()).collect();
    all.sort_unstable();
    all
}

/// A loaded, open database and the clients that will drive it.
pub struct Session<'a> {
    dir: &'a Path,
    workload: &'a Workload,
    pub store: Store,
    pub clients: Vec<Client>,
}

fn remove_dir(dir: &Path) -> Result<()> {
    match std::fs::remove_dir_all(dir) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(format!("removing {}: {e}", dir.display())),
    }
}

/// Runs `call` inside a root span named `name`.
fn spanned<S: Spans, T>(spans: &mut S, name: SpanName, call: impl FnOnce() -> T) -> T {
    let id = spans.open(name, NO_PARENT);
    let out = call();
    spans.close(id);
    out
}

fn os_counter<T>(what: &str, read: std::io::Result<T>) -> Result<T> {
    read.map_err(|e| format!("{what}: {e}"))
}

/// Set-up: open an empty directory, load every key once (each client its own
/// keys, in index order, at version 0), flush, let compaction finish, close,
/// reopen. Returns the session and how long all of that took.
pub fn setup<'a, S: Spans>(
    dir: &'a Path,
    workload: &'a Workload,
    spans: &mut S,
) -> Result<(Session<'a>, Duration)> {
    remove_dir(dir)?;
    let slots = workload.keys / CLIENTS;
    let started = Instant::now();
    let store = spanned(spans, SpanName::DbOpen, || Store::open(dir))?;
    std::thread::scope(|scope| {
        let loaders: Vec<_> = (0..CLIENTS)
            .map(|client| {
                let store = &store;
                scope.spawn(move || -> Result<()> {
                    let mut value = [0u8; VALUE_LEN];
                    for slot in 0..slots {
                        let key = slot * CLIENTS + client;
                        fill_value(&mut value, key, 0);
                        store.put(&encode_key(key), &value)?;
                    }
                    Ok(())
                })
            })
            .collect();
        loaders.into_iter().try_for_each(|loader| loader.join().expect("loader panicked"))
    })?;
    spanned(spans, SpanName::DbFlush, || store.flush())?;
    spanned(spans, SpanName::DbCompactionDrain, || store.wait_for_compactions())?;
    spanned(spans, SpanName::DbClose, || store.close())?;
    let store = spanned(spans, SpanName::DbReopen, || Store::open(dir))?;
    let elapsed = started.elapsed();
    let clients = (0..CLIENTS).map(|id| Client::new(id, slots)).collect();
    Ok((Session { dir, workload, store, clients }, elapsed))
}

/// What the timed phase measured.
pub struct Timed {
    /// From the clients' release to the last one's return.
    pub wall: Duration,
    pub ops: u64,
    /// Key + value bytes of the puts acknowledged in the phase.
    pub user_bytes: u64,
    /// Bytes under the database directory, sampled through the phase.
    pub disk_samples: Vec<u64>,
    /// `os::bytes_written` and `os::cpu_time` when the phase began.
    written_before: u64,
    cpu_before: Duration,
}

/// What the timed phase and the drain after it cost together: the drain
/// makes the phase pay for the background work it left behind.
pub struct Drained {
    /// Bytes handed to the OS.
    pub written: u64,
    /// CPU time of the whole process, background threads included.
    pub cpu: Duration,
    /// Bytes under the database directory after the drain.
    pub disk_bytes: u64,
}

impl Session<'_> {
    fn limit(seconds: u64) -> Duration {
        Duration::from_secs(seconds) * DEADLINE_FACTOR
    }

    /// Runs each client's `ops` on its own thread, all released together;
    /// returns the wall time from release to the last client's return.
    fn run_clients<S: Spans + Send>(
        &mut self,
        ops: &[&[Op]],
        spans: &mut [S],
        limit: Duration,
    ) -> Duration {
        let (store, workload) = (&self.store, self.workload);
        let barrier = &Barrier::new(self.clients.len());
        let windows: Vec<(Instant, Instant)> = std::thread::scope(|scope| {
            let threads: Vec<_> = self
                .clients
                .iter_mut()
                .zip(ops)
                .zip(spans.iter_mut())
                .map(|((client, ops), spans)| {
                    scope.spawn(move || {
                        barrier.wait();
                        let started = Instant::now();
                        client.run(store, workload, ops, spans, started + limit);
                        (started, Instant::now())
                    })
                })
                .collect();
            threads.into_iter().map(|t| t.join().expect("client panicked")).collect()
        });
        let first = windows.iter().map(|w| w.0).min().expect("at least one client");
        let last = windows.iter().map(|w| w.1).max().expect("at least one client");
        last - first
    }

    fn totals(&self) -> (u64, u64) {
        (
            self.clients.iter().map(|c| c.attempted).sum(),
            self.clients.iter().map(|c| c.acked_puts).sum(),
        )
    }

    /// Warm-up: the first `WARMUP_PERCENT` of each stream, untimed and
    /// untraced, to fill the block and table caches.
    pub fn warm_up(&mut self, stream: &[Vec<Op>], seconds: u64) {
        let warmup: Vec<&[Op]> = stream.iter().map(|ops| &ops[..warmup_len(ops)]).collect();
        let mut spans: Vec<NoSpans> = stream.iter().map(|_| NoSpans).collect();
        self.run_clients(&warmup, &mut spans, Self::limit(seconds));
        for client in &mut self.clients {
            client.read_ns.clear();
            client.write_ns.clear();
        }
    }

    /// The timed phase: the rest of each stream, every op timed from call to
    /// return, while a sampler thread measures the database directory.
    pub fn timed<S: Spans + Send>(
        &mut self,
        stream: &[Vec<Op>],
        spans: &mut [S],
        seconds: u64,
    ) -> Result<Timed> {
        let timed: Vec<&[Op]> = stream.iter().map(|ops| &ops[warmup_len(ops)..]).collect();
        let (attempted_before, puts_before) = self.totals();
        let written_before = os_counter("/proc/self/io", os::bytes_written())?;
        let cpu_before = os_counter("/proc/self/stat", os::cpu_time())?;
        let dir = self.dir;
        let stop = &AtomicBool::new(false);
        let (wall, disk_samples) = std::thread::scope(|scope| {
            let sampler = scope.spawn(move || -> Result<Vec<u64>> {
                let mut disk = Vec::new();
                loop {
                    disk.push(os_counter("walking the database", os::dir_bytes(dir))?);
                    if stop.load(Ordering::Relaxed) {
                        return Ok(disk);
                    }
                    std::thread::sleep(SAMPLE_EVERY);
                }
            });
            let wall = self.run_clients(&timed, spans, Self::limit(seconds));
            stop.store(true, Ordering::Relaxed);
            (wall, sampler.join().expect("sampler panicked"))
        });
        let (attempted, puts) = self.totals();
        Ok(Timed {
            wall,
            ops: attempted - attempted_before,
            user_bytes: (puts - puts_before) * RECORD_LEN,
            disk_samples: disk_samples?,
            written_before,
            cpu_before,
        })
    }

    /// Drain: flush and let compaction finish.
    pub fn drain<S: Spans>(&self, timed: &Timed, spans: &mut S) -> Result<Drained> {
        spanned(spans, SpanName::DbFlush, || self.store.flush())?;
        spanned(spans, SpanName::DbCompactionDrain, || self.store.wait_for_compactions())?;
        Ok(Drained {
            written: os_counter("/proc/self/io", os::bytes_written())? - timed.written_before,
            cpu: os_counter("/proc/self/stat", os::cpu_time())? - timed.cpu_before,
            disk_bytes: os_counter("walking the database", os::dir_bytes(self.dir))?,
        })
    }

    /// Verify: closes the store, then reopens it `REOPEN_REPEATS` times,
    /// timing each open plus first get. After the last reopen, reads back one
    /// key in `VERIFY_STRIDE` and checks it holds exactly its owner's last
    /// acknowledged version. Returns the reopen times and the clients, whose
    /// attempted/failed counts include these checks.
    pub fn reopen_and_verify(self, seed: u64) -> Result<(Vec<Duration>, Vec<Client>)> {
        let Session { dir, workload, store, mut clients } = self;
        store.close()?;
        let sample: Vec<u64> =
            (seed % VERIFY_STRIDE..workload.keys).step_by(VERIFY_STRIDE as usize).collect();
        let mut reopens = Vec::with_capacity(REOPEN_REPEATS);
        for round in 0..REOPEN_REPEATS {
            let first = sample[round % sample.len()];
            let started = Instant::now();
            let store = Store::open(dir)?;
            let value = store.get(&encode_key(first))?;
            reopens.push(started.elapsed());
            let mut held = vec![(first, value)];
            if round + 1 == REOPEN_REPEATS {
                for &key in &sample {
                    held.push((key, store.get(&encode_key(key))?));
                }
            }
            store.close()?;
            for (key, value) in held {
                let owner = &mut clients[(key % CLIENTS) as usize];
                let expected = u64::from(owner.versions[(key / CLIENTS) as usize]);
                owner.attempted += 1;
                owner.failed +=
                    u64::from(value.map(|v| check_value(&v, key)) != Some(Ok(expected)));
            }
        }
        Ok((reopens, clients))
    }
}

fn warmup_len(ops: &[Op]) -> usize {
    ops.len() * WARMUP_PERCENT / 100
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{KeyDist, OpStream};

    fn tiny(read_kind: ReadKind) -> Workload {
        Workload {
            name: "tiny",
            why: "unit test",
            keys: 2_000,
            read_percent: 50,
            read_kind,
            read_dist: KeyDist::Uniform,
            write_dist: KeyDist::Uniform,
            ops_per_second: 400,
        }
    }

    fn test_dir(name: &str) -> std::path::PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("out").join(format!("test-{name}"))
    }

    #[test]
    fn a_clean_run_fails_no_op_and_survives_reopen() {
        for (name, read_kind) in [("gets", ReadKind::Get), ("scans", ReadKind::Scan)] {
            let dir = test_dir(name);
            let workload = tiny(read_kind);
            let stream = OpStream::generate(&workload.stream_spec(1, 1), CLIENTS, 9);
            let (mut session, _) = setup(&dir, &workload, &mut NoSpans).unwrap();
            session.warm_up(&stream.clients, 1);
            let timed = session.timed(&stream.clients, &mut [NoSpans, NoSpans], 1).unwrap();
            assert_eq!(timed.ops, 400);
            let drained = session.drain(&timed, &mut NoSpans).unwrap();
            assert!(drained.written >= timed.user_bytes && drained.disk_bytes > 0);
            let (reopens, clients) = session.reopen_and_verify(9).unwrap();
            assert_eq!(reopens.len(), REOPEN_REPEATS);
            assert!(clients.iter().all(|c| c.failed == 0 && c.cut_ops == 0));
            let attempted: u64 = clients.iter().map(|c| c.attempted).sum();
            assert!(attempted > stream.clients.iter().map(|ops| ops.len() as u64).sum());
            remove_dir(&dir).unwrap();
        }
    }

    #[test]
    fn a_value_the_store_corrupted_is_counted_as_failed() {
        let dir = test_dir("corrupt");
        let workload = tiny(ReadKind::Get);
        let (mut session, _) = setup(&dir, &workload, &mut NoSpans).unwrap();
        // Key 6 belongs to client 0; overwrite it behind the client's back,
        // once with a damaged value and once with a well-formed stale one.
        let mut value = [0u8; VALUE_LEN];
        fill_value(&mut value, 6, 0);
        value[40] ^= 0x10;
        session.store.put(&encode_key(6), &value).unwrap();
        let (store, client) = (&session.store, &mut session.clients[0]);
        assert!(!client.get(store, 6, &mut NoSpans), "damaged filler");
        assert!(!client.scan(store, 0, workload.keys, &mut NoSpans), "scan over it");
        assert!(client.put(store, 6, &mut NoSpans));
        assert!(client.get(store, 6, &mut NoSpans), "own write reads back");
        fill_value(&mut value, 6, 0);
        store.put(&encode_key(6), &value).unwrap();
        assert!(!client.get(store, 6, &mut NoSpans), "lost update");
        assert!(session.clients[1].get(&session.store, 6, &mut NoSpans), "not the owner");
        let (_, clients) = session.reopen_and_verify(6).unwrap();
        // Key 6 is read back as the first get of round 0 and in the final sample.
        assert_eq!(clients[0].failed, 2);
        assert_eq!(clients[1].failed, 0);
        remove_dir(&dir).unwrap();
    }
}
