//! The declarative rule set: every invariant `triad-lint` enforces.
//!
//! Each rule has a stable id (printed by `--list-rules`, referenced by
//! waivers, documented in docs/ARCHITECTURE.md) and scopes itself by path, so
//! fixtures can exercise a rule by parsing a snippet under a *virtual* path.
//! Rules never inspect raw text: they match token patterns from
//! [`SourceFile`], so strings and comments can't trigger them.

use crate::diag::Diagnostic;
use crate::scanner::{matching_brace, SourceFile, Token, TokenKind};
use std::collections::BTreeMap;

/// Metadata for one rule.
#[derive(Debug, Clone, Copy)]
pub struct Rule {
    /// Stable id: waiver target, `--list-rules` output, ARCHITECTURE.md key.
    pub id: &'static str,
    /// One-line summary of the enforced invariant.
    pub summary: &'static str,
}

/// Every rule this pass enforces, in evaluation order.
pub const RULES: &[Rule] = &[
    Rule { id: "region-markers", summary: "invariant region markers exist and are balanced" },
    Rule {
        id: "append-stage-no-fsync",
        summary: "no durable-sync calls inside the commit append stage",
    },
    Rule {
        id: "hot-read-newest-unbounded",
        summary: "the hot read path probes newest (u64::MAX), never seqno-bounded",
    },
    Rule {
        id: "no-stale-version-retry",
        summary: "the stale-version retry hack must not come back",
    },
    Rule { id: "lock-order", summary: "nested lock acquisitions follow the declared rank order" },
    Rule {
        id: "block-cache-checksum",
        summary: "blocks enter the shared cache only via the checksum-verified decode path",
    },
    Rule {
        id: "multi-shard-wal-gate",
        summary: "no loop acquires several shards' WAL locks outside the snapshot gate",
    },
    Rule { id: "no-std-sync-lock", summary: "engine crates use parking_lot locks, not std::sync" },
    Rule {
        id: "no-direct-remove-file",
        summary: "file deletion goes through GC, not ad-hoc remove_file calls",
    },
    Rule {
        id: "checkpoint-fs-region",
        summary: "checkpoint filesystem mutation stays inside the CHECKPOINT-FS region",
    },
    Rule {
        id: "no-wallclock-in-workload",
        summary: "deterministic workload code never reads wall clocks",
    },
    Rule { id: "forbid-unsafe-code", summary: "every crate lib carries #![forbid(unsafe_code)]" },
    Rule {
        id: "failpoint-registry",
        summary: "failpoints referenced by tests exist in the engine and vice versa",
    },
    Rule { id: "waiver-hygiene", summary: "lint waivers carry a reason" },
];

/// Crates whose `src/` trees count as engine code (locking discipline, GC
/// ownership of deletion). Benches, workloads and the lint itself are not
/// engine code.
const ENGINE_CRATES: &[&str] = &[
    "crates/common/",
    "crates/hll/",
    "crates/wal/",
    "crates/memtable/",
    "crates/sstable/",
    "crates/core/",
];

/// The declared lock ranks, by field name. Mirrors `lock_rank` in
/// crates/core/src/db.rs, `VIEW_RANK` in crates/core/src/replica.rs,
/// `SHARD_LOCK_RANK` in crates/memtable, and the std-sync locks in
/// committer.rs/durability.rs; the table with rationale lives in
/// docs/ARCHITECTURE.md ("Enforced invariants").
const LOCK_RANKS: &[(&str, u32)] = &[
    ("view", 2),
    ("gc", 5),
    ("router", 8),
    ("wal", 10),
    ("queue", 15),
    ("commit_gate", 20),
    ("versions", 30),
    ("current_version", 35),
    ("mem", 40),
    ("imm", 45),
    ("stamps", 50),
    ("tables", 60),
    ("blocks", 65),
    ("shard", 70),
    ("fsync_lock", 80),
    ("sync_active", 82),
    ("mark", 84),
];

/// Files the lock-order rule scans: everywhere the ranked locks live.
const LOCK_ORDER_SCOPE: &[&str] = &["crates/core/src/", "crates/memtable/src/"];

/// The only files allowed to call `remove_file` directly: GC's deletion path,
/// manifest rotation cleanup, and the checkpoint module (whose deletions are
/// further confined to the CHECKPOINT-FS region by `checkpoint-fs-region`).
/// Everything else must retire files through the GC queue so live versions
/// keep their files on disk.
const REMOVE_FILE_ALLOWED: &[&str] =
    &["crates/core/src/db.rs", "crates/core/src/manifest.rs", "crates/core/src/checkpoint.rs"];

struct Ctx {
    diags: Vec<Diagnostic>,
}

impl Ctx {
    fn emit(&mut self, file: &SourceFile, rule: &'static str, line: u32, message: String) {
        if !file.waived(rule, line) {
            self.diags.push(Diagnostic { rule, path: file.path.clone(), line, message });
        }
    }
}

/// Runs every rule over `files`, returning diagnostics sorted by location.
pub fn run_all(files: &[SourceFile]) -> Vec<Diagnostic> {
    let mut ctx = Ctx { diags: Vec::new() };
    for file in files {
        region_markers(file, &mut ctx);
        append_stage_no_fsync(file, &mut ctx);
        hot_read_newest_unbounded(file, &mut ctx);
        no_stale_version_retry(file, &mut ctx);
        lock_order(file, &mut ctx);
        block_cache_checksum(file, &mut ctx);
        multi_shard_wal_gate(file, &mut ctx);
        no_std_sync_lock(file, &mut ctx);
        no_direct_remove_file(file, &mut ctx);
        checkpoint_fs_region(file, &mut ctx);
        no_wallclock_in_workload(file, &mut ctx);
        forbid_unsafe_code(file, &mut ctx);
        waiver_hygiene(file, &mut ctx);
    }
    failpoint_registry(files, &mut ctx);
    let mut diags = ctx.diags;
    diags.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    diags
}

/// A marker comment is one whose text — after the comment delimiters — starts
/// with the marker, so prose *mentioning* a marker never matches.
fn is_marker(comment: &str, marker: &str) -> bool {
    comment.trim_start_matches(['/', '!', '*', ' ', '\t']).starts_with(marker)
}

/// The two line ranges (exclusive of the marker comments themselves) of a
/// named region, or `None` when either marker is missing or duplicated.
fn find_region(file: &SourceFile, begin: &str, end: &str) -> Option<(u32, u32)> {
    let lines = |marker: &str| -> Vec<u32> {
        file.comments.iter().filter(|c| is_marker(&c.text, marker)).map(|c| c.line).collect()
    };
    let (begins, ends) = (lines(begin), lines(end));
    match (begins.as_slice(), ends.as_slice()) {
        ([b], [e]) if b < e => Some((*b, *e)),
        _ => None,
    }
}

/// Tokens strictly between the marker lines of a region.
fn region_tokens(file: &SourceFile, range: (u32, u32)) -> impl Iterator<Item = (usize, &Token)> {
    file.tokens.iter().enumerate().filter(move |(_, t)| t.line > range.0 && t.line < range.1)
}

// ---------------------------------------------------------------------------
// region-markers
// ---------------------------------------------------------------------------

/// A mandatory invariant region: the file it lives in and its marker pair.
type Region = (&'static str, &'static str, &'static str);

/// The commit pipeline's append stage (under the WAL lock) in the write-path
/// module, checked by `append-stage-no-fsync`.
const APPEND_STAGE: Region =
    ("crates/core/src/commit.rs", "PIPELINE-APPEND-STAGE-BEGIN", "PIPELINE-APPEND-STAGE-END");

/// The read-newest fast path of `DbInner::get`, checked by
/// `hot-read-newest-unbounded`.
const HOT_READ: Region = ("crates/core/src/db.rs", "HOT-READ-NEWEST-BEGIN", "HOT-READ-NEWEST-END");

/// The line range of a mandatory region, when `file` is the file that owns it and
/// its markers are intact.
fn owned_region(file: &SourceFile, (path, begin, end): Region) -> Option<(u32, u32)> {
    (file.path == path).then(|| find_region(file, begin, end)).flatten()
}

fn region_markers(file: &SourceFile, ctx: &mut Ctx) {
    // Deleting a marker (accidentally or to dodge a rule) is itself a
    // violation — this replaces the "markers vanished" arms of the old CI greps.
    for (path, begin, end) in [APPEND_STAGE, HOT_READ] {
        if file.path == path && find_region(file, begin, end).is_none() {
            ctx.emit(
                file,
                "region-markers",
                1,
                format!(
                    "the {begin}/{end} markers must appear exactly once each, \
                     begin before end; the invariant region they delimit is \
                     rule-checked and must not vanish"
                ),
            );
        }
    }
    if file.path == "crates/core/src/snapshot.rs"
        && find_region(file, SNAPSHOT_GATE.0, SNAPSHOT_GATE.1).is_none()
    {
        ctx.emit(
            file,
            "region-markers",
            1,
            format!(
                "the {}/{} markers must appear exactly once each, begin before end; \
                 the multi-shard WAL drain is only legal inside this region",
                SNAPSHOT_GATE.0, SNAPSHOT_GATE.1
            ),
        );
    }
    // Generic named regions: `// LINT-REGION: name` … `// LINT-REGION-END: name`.
    let names = |marker: &str| -> Vec<(String, u32)> {
        file.comments
            .iter()
            .filter(|c| is_marker(&c.text, marker))
            .map(|c| {
                let text = c.text.trim_start_matches(['/', '!', '*', ' ', '\t']);
                let name = text[marker.len()..]
                    .trim_start_matches(':')
                    .split_whitespace()
                    .next()
                    .unwrap_or("")
                    .to_string();
                (name, c.line)
            })
            .collect()
    };
    let ends = names("LINT-REGION-END");
    let begins: Vec<(String, u32)> = names("LINT-REGION")
        .into_iter()
        .filter(|(_, line)| !ends.iter().any(|(_, e)| e == line))
        .collect();
    for (name, line) in &begins {
        if !ends.iter().any(|(n, l)| n == name && l > line) {
            ctx.emit(
                file,
                "region-markers",
                *line,
                format!("LINT-REGION `{name}` has no matching LINT-REGION-END below it"),
            );
        }
    }
    for (name, line) in &ends {
        if !begins.iter().any(|(n, l)| n == name && l < line) {
            ctx.emit(
                file,
                "region-markers",
                *line,
                format!("LINT-REGION-END `{name}` has no matching LINT-REGION above it"),
            );
        }
    }
}

// ---------------------------------------------------------------------------
// append-stage-no-fsync
// ---------------------------------------------------------------------------

fn append_stage_no_fsync(file: &SourceFile, ctx: &mut Ctx) {
    let Some(range) = owned_region(file, APPEND_STAGE) else { return };
    let toks = &file.tokens;
    let flagged: Vec<(u32, String)> = region_tokens(file, range)
        .filter_map(|(i, t)| {
            if t.kind != TokenKind::Ident {
                return None;
            }
            let call = |name: &str| {
                format!(
                    "`{name}` inside the commit append stage: the append (WAL) lock \
                     must never be held across a durable sync — durability belongs to \
                     the watermark's sync stage behind it"
                )
            };
            match t.text.as_str() {
                "sync_data" | "ensure_durable" => Some((t.line, call(&t.text))),
                "sync" if i > 0 && toks[i - 1].is_punct(".") && nth_is(toks, i + 1, "(") => {
                    Some((t.line, call(".sync(")))
                }
                "seal" if nth_is(toks, i + 1, "(") => Some((t.line, call("seal("))),
                _ => None,
            }
        })
        .collect();
    for (line, msg) in flagged {
        ctx.emit(file, "append-stage-no-fsync", line, msg);
    }
}

// ---------------------------------------------------------------------------
// hot-read-newest-unbounded
// ---------------------------------------------------------------------------

fn hot_read_newest_unbounded(file: &SourceFile, ctx: &mut Ctx) {
    let Some(range) = owned_region(file, HOT_READ) else { return };
    let toks = &file.tokens;
    let mut saw_unbounded = false;
    let mut flagged: Vec<(u32, String)> = Vec::new();
    for (i, t) in region_tokens(file, range) {
        if t.is_ident("u64") && nth_is(toks, i + 1, ":") && nth_is(toks, i + 2, ":") {
            if toks.get(i + 3).is_some_and(|t| t.is_ident("MAX")) {
                saw_unbounded = true;
            }
            continue;
        }
        if t.kind != TokenKind::Ident {
            continue;
        }
        let bounded = |what: &str| {
            format!(
                "seqno-bounded probe `{what}` on the hot read path: `Db::get` reads \
                 newest (one slot per key in the memtable) — bounding by a just-loaded \
                 seqno reintroduces the missed-key race; bounded reads belong to the \
                 snapshot path only"
            )
        };
        match t.text.as_str() {
            "get_at" if nth_is(toks, i + 1, "(") => flagged.push((t.line, bounded("get_at("))),
            "snapshot_entries_at" | "retention" | "last_seqno" => {
                flagged.push((t.line, bounded(&t.text)))
            }
            "seqno" if nth_is(toks, i + 1, "(") && nth_is(toks, i + 2, ")") => {
                flagged.push((t.line, bounded("seqno()")))
            }
            _ => {}
        }
    }
    if !saw_unbounded {
        flagged.push((
            range.0,
            "the hot read path no longer probes with the unbounded u64::MAX ceiling".to_string(),
        ));
    }
    for (line, msg) in flagged {
        ctx.emit(file, "hot-read-newest-unbounded", line, msg);
    }
}

// ---------------------------------------------------------------------------
// no-stale-version-retry
// ---------------------------------------------------------------------------

fn no_stale_version_retry(file: &SourceFile, ctx: &mut Ctx) {
    let flagged: Vec<u32> = file
        .tokens
        .iter()
        .filter(|t| t.is_ident("retry_stale_version") || t.is_ident("is_missing_file_error"))
        .map(|t| t.line)
        .collect();
    for line in flagged {
        ctx.emit(
            file,
            "no-stale-version-retry",
            line,
            "file lifetime is GC-managed (versions pin their files); a NotFound is \
             corruption and must never be papered over with a retry loop \
             (docs/ARCHITECTURE.md, \"File lifetime & garbage collection\")"
                .to_string(),
        );
    }
}

// ---------------------------------------------------------------------------
// lock-order
// ---------------------------------------------------------------------------

/// A lexical model of guard lifetimes, checked against [`LOCK_RANKS`]:
///
/// * an acquisition is a known lock name followed by `.lock()`, `.read()` or
///   `.write()`; its rank must be strictly greater than every rank currently
///   held (exactly the dynamic tracker's assertion);
/// * a guard is **held** only when the whole statement is
///   `let <var> = <path>.lock();` (optionally `mut`, optionally chained
///   through `.expect(…)` / `.unwrap(…)`) — anything else (a trailing
///   `.clone()`, a field access, an expression operand) is a temporary that
///   dies at the end of its statement;
/// * held guards are released by `drop(<var>)` or when their block closes.
///
/// This deliberately under-approximates (guards moved into structs or across
/// functions are invisible); the debug-build rank tracker in
/// `triad_common::lockrank` covers what the lexical model cannot see.
fn lock_order(file: &SourceFile, ctx: &mut Ctx) {
    if !LOCK_ORDER_SCOPE.iter().any(|p| file.path.starts_with(p)) {
        return;
    }
    let toks = &file.tokens;
    let rank_of = |name: &str| LOCK_RANKS.iter().find(|(n, _)| *n == name).map(|(_, r)| *r);
    let mut held: Vec<(String, u32, String, i32)> = Vec::new(); // (var, rank, lock, depth)
    let mut depth: i32 = 0;
    let mut flagged: Vec<(u32, String)> = Vec::new();

    let mut i = 0;
    while i < toks.len() {
        let t = &toks[i];
        if t.is_punct("{") {
            depth += 1;
        } else if t.is_punct("}") {
            depth -= 1;
            held.retain(|h| h.3 <= depth);
        } else if t.is_ident("drop")
            && nth_is(toks, i + 1, "(")
            && toks.get(i + 2).map(|t| t.kind) == Some(TokenKind::Ident)
            && nth_is(toks, i + 3, ")")
        {
            let var = &toks[i + 2].text;
            held.retain(|h| &h.0 != var);
        } else if t.kind == TokenKind::Ident {
            if let Some(rank) = rank_of(&t.text) {
                if is_acquisition(toks, i) {
                    if let Some(top) = held.iter().max_by_key(|h| h.1) {
                        if rank <= top.1 && !file.is_test(i) {
                            flagged.push((
                                t.line,
                                format!(
                                    "acquiring `{}` (rank {rank}) while `{}` (rank {}) is \
                                     held; ranked locks must be taken in strictly \
                                     increasing rank order",
                                    t.text, top.2, top.1
                                ),
                            ));
                        }
                    }
                    if let Some(var) = held_binding(toks, i) {
                        held.push((var, rank, t.text.clone(), depth));
                    }
                }
            }
        }
        i += 1;
    }
    for (line, msg) in flagged {
        ctx.emit(file, "lock-order", line, msg);
    }
}

/// `name . lock|read|write ( )` starting at the name token `i`.
fn is_acquisition(toks: &[Token], i: usize) -> bool {
    nth_is(toks, i + 1, ".")
        && toks
            .get(i + 2)
            .is_some_and(|t| t.is_ident("lock") || t.is_ident("read") || t.is_ident("write"))
        && nth_is(toks, i + 3, "(")
        && nth_is(toks, i + 4, ")")
}

/// If the acquisition at `i` is the entire initializer of a `let` statement
/// (guard bound to a variable for the rest of the block), returns the bound
/// variable's name.
fn held_binding(toks: &[Token], i: usize) -> Option<String> {
    // Walk back over the access chain (`self . inner . wal`) to its start.
    let mut j = i;
    while j >= 2 && toks[j - 1].is_punct(".") && toks[j - 2].kind == TokenKind::Ident {
        j -= 2;
    }
    // `let [mut] <var> = <chain>` must immediately precede the chain.
    if j < 2 || !toks[j - 1].is_punct("=") || toks[j - 2].kind != TokenKind::Ident {
        return None;
    }
    let var = toks[j - 2].text.clone();
    let let_ok = match toks.get(j.checked_sub(3)?) {
        Some(t) if t.is_ident("let") => true,
        Some(t) if t.is_ident("mut") => j >= 4 && toks[j - 4].is_ident("let"),
        _ => false,
    };
    if !let_ok {
        return None;
    }
    // Forward: `( )` then optional `.expect(…)` / `.unwrap(…)` chains, then `;`.
    let mut k = i + 5;
    while nth_is(toks, k, ".")
        && toks.get(k + 1).is_some_and(|t| t.is_ident("expect") || t.is_ident("unwrap"))
        && nth_is(toks, k + 2, "(")
    {
        k = matching_paren(toks, k + 2)? + 1;
    }
    if nth_is(toks, k, ";") {
        Some(var)
    } else {
        None
    }
}

fn matching_paren(toks: &[Token], open: usize) -> Option<usize> {
    let mut depth = 0;
    for (i, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct("(") {
            depth += 1;
        } else if t.is_punct(")") {
            depth -= 1;
            if depth == 0 {
                return Some(i);
            }
        }
    }
    None
}

fn nth_is(toks: &[Token], i: usize, punct: &str) -> bool {
    toks.get(i).is_some_and(|t| t.is_punct(punct))
}

// ---------------------------------------------------------------------------
// block-cache-checksum
// ---------------------------------------------------------------------------

/// The BLOCK-CACHE-CHECKSUM markers in crates/sstable/src/reader.rs delimit
/// the one region allowed to feed blocks into the shared block cache. The
/// cache serves decoded blocks to every reader without re-verifying them, so
/// a single unverified insert would silently spread corruption; inside the
/// region every loader closure decodes bytes obtained from `read_block`, the
/// CRC32C-verified read path.
const BLOCK_CACHE_REGION: (&str, &str) = ("BLOCK-CACHE-CHECKSUM-BEGIN", "BLOCK-CACHE-CHECKSUM-END");

/// Lexically, feeding the cache means calling `.get_or_load(` — the single
/// entry point of the `BlockFetch` trait. Any such call outside the marked
/// region (tests excepted) is flagged, as is a region that lost its
/// `read_block` loader or a reader.rs that lost the markers entirely.
fn block_cache_checksum(file: &SourceFile, ctx: &mut Ctx) {
    if !in_engine_src(&file.path) {
        return;
    }
    let region = find_region(file, BLOCK_CACHE_REGION.0, BLOCK_CACHE_REGION.1);
    if file.path == "crates/sstable/src/reader.rs" {
        match region {
            None => {
                ctx.emit(
                    file,
                    "block-cache-checksum",
                    1,
                    format!(
                        "the {}/{} markers must appear exactly once each, begin before \
                         end; block-cache inserts are only legal inside this region",
                        BLOCK_CACHE_REGION.0, BLOCK_CACHE_REGION.1
                    ),
                );
                return;
            }
            Some(range) => {
                if !region_tokens(file, range).any(|(_, t)| t.is_ident("read_block")) {
                    ctx.emit(
                        file,
                        "block-cache-checksum",
                        range.0,
                        "the BLOCK-CACHE-CHECKSUM region no longer loads through \
                         `read_block`: the cache must only ever hold blocks decoded \
                         from the CRC32C-verified read path"
                            .to_string(),
                    );
                }
            }
        }
    }
    let toks = &file.tokens;
    let mut flagged: Vec<u32> = Vec::new();
    for i in 0..toks.len() {
        if toks[i].is_ident("get_or_load")
            && i > 0
            && toks[i - 1].is_punct(".")
            && nth_is(toks, i + 1, "(")
            && !file.is_test(i)
        {
            let in_region = region.is_some_and(|(b, e)| toks[i].line > b && toks[i].line < e);
            if !in_region {
                flagged.push(toks[i].line);
            }
        }
    }
    for line in flagged {
        ctx.emit(
            file,
            "block-cache-checksum",
            line,
            "`.get_or_load(` outside the BLOCK-CACHE-CHECKSUM region: blocks may \
             enter the shared cache only from the checksum-verified decode path in \
             crates/sstable/src/reader.rs — a cached block is served to every \
             reader without re-verification"
                .to_string(),
        );
    }
}

// ---------------------------------------------------------------------------
// multi-shard-wal-gate
// ---------------------------------------------------------------------------

/// The SNAPSHOT-GATE markers in crates/core/src/snapshot.rs delimit the one
/// region allowed to hold several shards' WAL locks (and commit gates) at
/// once — the shard-spanning snapshot drain, serialized by the router gate.
const SNAPSHOT_GATE: (&str, &str) = ("SNAPSHOT-GATE-BEGIN", "SNAPSHOT-GATE-END");

/// Holding two shards' WAL locks at once is the cross-shard deadlock shape:
/// two threads draining shards in different orders wait on each other forever.
/// Only the marked snapshot-gate region may do it, because the router gate
/// (rank `ROUTER` = 8, below `WAL`) already serializes whole-database drains.
///
/// Lexically, acquiring *several* shards' WAL locks means a `wal.lock()`
/// inside a `for`/`while`/`loop` body — one acquisition per iteration, guards
/// accumulated — so that is what gets flagged outside the gate region. A
/// single `wal.lock()` per statement (every hot-path site) never matches.
fn multi_shard_wal_gate(file: &SourceFile, ctx: &mut Ctx) {
    if !file.path.starts_with("crates/core/src/") {
        return;
    }
    let gate = find_region(file, SNAPSHOT_GATE.0, SNAPSHOT_GATE.1);
    let toks = &file.tokens;
    // Token ranges of every loop body: keyword → first `{` → matching `}`.
    let mut loop_bodies: Vec<(usize, usize)> = Vec::new();
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.is_ident("for") || t.is_ident("while") || t.is_ident("loop") {
            let mut j = i + 1;
            while j < toks.len() && !toks[j].is_punct("{") {
                if toks[j].is_punct(";") || toks[j].is_punct("}") {
                    break; // not a loop header after all
                }
                j += 1;
            }
            if j < toks.len() && toks[j].is_punct("{") {
                loop_bodies.push((j, matching_brace(toks, j)));
            }
        }
    }
    let mut flagged: Vec<u32> = Vec::new();
    for i in 0..toks.len() {
        if toks[i].is_ident("wal")
            && nth_is(toks, i + 1, ".")
            && toks.get(i + 2).is_some_and(|t| t.is_ident("lock"))
            && nth_is(toks, i + 3, "(")
            && nth_is(toks, i + 4, ")")
            && !file.is_test(i)
        {
            let in_loop = loop_bodies.iter().any(|&(open, close)| i > open && i < close);
            let in_gate = gate.is_some_and(|(b, e)| toks[i].line > b && toks[i].line < e);
            if in_loop && !in_gate {
                flagged.push(toks[i].line);
            }
        }
    }
    for line in flagged {
        ctx.emit(
            file,
            "multi-shard-wal-gate",
            line,
            "`wal.lock()` inside a loop body: acquiring several shards' WAL locks is \
             only legal inside the SNAPSHOT-GATE region of snapshot.rs, where the \
             router gate serializes whole-database drains — anywhere else it is a \
             cross-shard deadlock waiting to interleave"
                .to_string(),
        );
    }
}

// ---------------------------------------------------------------------------
// no-std-sync-lock
// ---------------------------------------------------------------------------

const STD_SYNC_BANNED: &[&str] = &[
    "Mutex",
    "RwLock",
    "MutexGuard",
    "RwLockReadGuard",
    "RwLockWriteGuard",
    "TryLockError",
    "TryLockResult",
    "PoisonError",
];

fn no_std_sync_lock(file: &SourceFile, ctx: &mut Ctx) {
    if !in_engine_src(&file.path) {
        return;
    }
    let toks = &file.tokens;
    let mut flagged: Vec<(u32, String)> = Vec::new();
    for i in 0..toks.len() {
        if file.is_test(i) {
            continue;
        }
        // `std :: sync ::` …
        if !(toks[i].is_ident("std")
            && nth_is(toks, i + 1, ":")
            && nth_is(toks, i + 2, ":")
            && toks.get(i + 3).is_some_and(|t| t.is_ident("sync"))
            && nth_is(toks, i + 4, ":")
            && nth_is(toks, i + 5, ":"))
        {
            continue;
        }
        let msg = |name: &str| {
            format!(
                "`std::sync::{name}` in an engine crate: engine locks are parking_lot \
                 (or the ranked wrappers in triad_common::lockrank) — std locks add \
                 poisoning and miss the rank tracking"
            )
        };
        match toks.get(i + 6) {
            Some(t) if t.kind == TokenKind::Ident && STD_SYNC_BANNED.contains(&t.text.as_str()) => {
                flagged.push((t.line, msg(&t.text)));
            }
            Some(t) if t.is_punct("{") => {
                let close = matching_brace(toks, i + 6);
                for t in &toks[i + 6..=close.min(toks.len() - 1)] {
                    if t.kind == TokenKind::Ident && STD_SYNC_BANNED.contains(&t.text.as_str()) {
                        flagged.push((t.line, msg(&t.text)));
                    }
                }
            }
            _ => {}
        }
    }
    for (line, msg) in flagged {
        ctx.emit(file, "no-std-sync-lock", line, msg);
    }
}

// ---------------------------------------------------------------------------
// no-direct-remove-file
// ---------------------------------------------------------------------------

fn no_direct_remove_file(file: &SourceFile, ctx: &mut Ctx) {
    if !in_engine_src(&file.path) || REMOVE_FILE_ALLOWED.contains(&file.path.as_str()) {
        return;
    }
    let flagged: Vec<u32> = file
        .tokens
        .iter()
        .enumerate()
        .filter(|(i, t)| t.is_ident("remove_file") && !file.is_test(*i))
        .map(|(_, t)| t.line)
        .collect();
    for line in flagged {
        ctx.emit(
            file,
            "no-direct-remove-file",
            line,
            "direct `remove_file` outside the GC/manifest modules: deleting a file \
             that a live version still references is the resurrection bug PR 2 fixed — \
             retire files through the GC queue instead"
                .to_string(),
        );
    }
}

// ---------------------------------------------------------------------------
// checkpoint-fs-region
// ---------------------------------------------------------------------------

/// The CHECKPOINT-FS markers in crates/core/src/checkpoint.rs delimit the one
/// region allowed to mutate the filesystem on behalf of a checkpoint: links,
/// copies, directory creation and the pending-marker deletion. Keeping every
/// mutation in one marked region makes the feature's whole on-disk footprint
/// auditable at a glance — a stray link or delete elsewhere in the module is
/// exactly how a checkpoint starts touching primary-owned paths.
const CHECKPOINT_FS: (&str, &str) = ("CHECKPOINT-FS-BEGIN", "CHECKPOINT-FS-END");

/// The file the rule applies to.
const CHECKPOINT_FILE: &str = "crates/core/src/checkpoint.rs";

/// `std::fs` functions that mutate the filesystem; matched as `fs :: name (`.
const FS_MUTATORS: &[&str] = &[
    "hard_link",
    "copy",
    "remove_file",
    "remove_dir_all",
    "remove_dir",
    "rename",
    "write",
    "create_dir",
    "create_dir_all",
    "set_permissions",
];

fn checkpoint_fs_region(file: &SourceFile, ctx: &mut Ctx) {
    if file.path != CHECKPOINT_FILE {
        return;
    }
    let region = find_region(file, CHECKPOINT_FS.0, CHECKPOINT_FS.1);
    if region.is_none() {
        ctx.emit(
            file,
            "checkpoint-fs-region",
            1,
            format!(
                "the {}/{} markers must appear exactly once each, begin before end; \
                 checkpoint filesystem mutation is only legal inside this region",
                CHECKPOINT_FS.0, CHECKPOINT_FS.1
            ),
        );
    }
    let toks = &file.tokens;
    let mut flagged: Vec<(u32, String)> = Vec::new();
    for i in 0..toks.len() {
        if file.is_test(i) {
            continue;
        }
        // `fs :: <mutator> (` or `File :: create (`.
        let call = if toks[i].is_ident("fs")
            && nth_is(toks, i + 1, ":")
            && nth_is(toks, i + 2, ":")
            && toks.get(i + 3).is_some_and(|t| {
                t.kind == TokenKind::Ident && FS_MUTATORS.contains(&t.text.as_str())
            })
            && nth_is(toks, i + 4, "(")
        {
            Some((toks[i + 3].line, format!("fs::{}", toks[i + 3].text)))
        } else if toks[i].is_ident("File")
            && nth_is(toks, i + 1, ":")
            && nth_is(toks, i + 2, ":")
            && toks.get(i + 3).is_some_and(|t| t.is_ident("create"))
            && nth_is(toks, i + 4, "(")
        {
            Some((toks[i + 3].line, "File::create".to_string()))
        } else {
            None
        };
        if let Some((line, what)) = call {
            let in_region = region.is_some_and(|(b, e)| line > b && line < e);
            if !in_region {
                flagged.push((line, what));
            }
        }
    }
    for (line, what) in flagged {
        ctx.emit(
            file,
            "checkpoint-fs-region",
            line,
            format!(
                "`{what}` outside the CHECKPOINT-FS region: every filesystem mutation \
                 a checkpoint performs (links, copies, directory creation, the \
                 pending-marker deletion) must live inside the marked region so the \
                 feature's on-disk footprint stays auditable in one place"
            ),
        );
    }
}

// ---------------------------------------------------------------------------
// no-wallclock-in-workload
// ---------------------------------------------------------------------------

fn no_wallclock_in_workload(file: &SourceFile, ctx: &mut Ctx) {
    if !file.path.starts_with("crates/workload/src/") {
        return;
    }
    let flagged: Vec<(u32, String)> = file
        .tokens
        .iter()
        .enumerate()
        .filter(|(i, t)| (t.is_ident("Instant") || t.is_ident("SystemTime")) && !file.is_test(*i))
        .map(|(_, t)| (t.line, t.text.clone()))
        .collect();
    for (line, name) in flagged {
        ctx.emit(
            file,
            "no-wallclock-in-workload",
            line,
            format!(
                "`{name}` in deterministic workload code: operation streams must be a \
                 pure function of the seed (benches check a stream checksum) — take \
                 time as an input, don't read the clock"
            ),
        );
    }
}

// ---------------------------------------------------------------------------
// forbid-unsafe-code
// ---------------------------------------------------------------------------

fn forbid_unsafe_code(file: &SourceFile, ctx: &mut Ctx) {
    let is_crate_lib = file.path.starts_with("crates/")
        && file.path.ends_with("/src/lib.rs")
        && file.path.matches('/').count() == 3;
    if !is_crate_lib {
        return;
    }
    let toks = &file.tokens;
    let found = (0..toks.len()).any(|i| {
        toks[i].is_punct("#")
            && nth_is(toks, i + 1, "!")
            && nth_is(toks, i + 2, "[")
            && toks.get(i + 3).is_some_and(|t| t.is_ident("forbid"))
            && nth_is(toks, i + 4, "(")
            && toks.get(i + 5).is_some_and(|t| t.is_ident("unsafe_code"))
            && nth_is(toks, i + 6, ")")
            && nth_is(toks, i + 7, "]")
    });
    if !found {
        ctx.emit(
            file,
            "forbid-unsafe-code",
            1,
            "crate lib is missing `#![forbid(unsafe_code)]`: the workspace-level deny \
             can be overridden per-module, forbid cannot"
                .to_string(),
        );
    }
}

// ---------------------------------------------------------------------------
// failpoint-registry
// ---------------------------------------------------------------------------

fn failpoint_registry(files: &[SourceFile], ctx: &mut Ctx) {
    // Engine side: `failpoints.check("name")` in engine src, outside tests.
    let mut engine: BTreeMap<String, (usize, u32)> = BTreeMap::new();
    // Test side: `.arm("name" / .disarm("name" / .hits("name"` under tests/.
    let mut referenced: BTreeMap<String, (usize, u32)> = BTreeMap::new();
    let mut armed: BTreeMap<String, (usize, u32)> = BTreeMap::new();

    for (fi, file) in files.iter().enumerate() {
        let toks = &file.tokens;
        if in_engine_src(&file.path) {
            for i in 0..toks.len() {
                if toks[i].is_ident("failpoints")
                    && nth_is(toks, i + 1, ".")
                    && toks.get(i + 2).is_some_and(|t| t.is_ident("check"))
                    && nth_is(toks, i + 3, "(")
                    && toks.get(i + 4).map(|t| t.kind) == Some(TokenKind::Str)
                    && !file.is_test(i)
                {
                    let name = toks[i + 4].text.clone();
                    engine.entry(name).or_insert((fi, toks[i + 4].line));
                }
            }
        }
        if file.path.contains("/tests/") || file.path.starts_with("tests/") {
            for i in 0..toks.len() {
                if nth_is(toks, i, ".")
                    && toks.get(i + 1).is_some_and(|t| {
                        t.is_ident("arm") || t.is_ident("disarm") || t.is_ident("hits")
                    })
                    && nth_is(toks, i + 2, "(")
                    && toks.get(i + 3).map(|t| t.kind) == Some(TokenKind::Str)
                {
                    let name = toks[i + 3].text.clone();
                    let site = (fi, toks[i + 3].line);
                    referenced.entry(name.clone()).or_insert(site);
                    if toks[i + 1].is_ident("arm") {
                        armed.entry(name).or_insert(site);
                    }
                }
            }
        }
    }

    for (name, (fi, line)) in &referenced {
        if !engine.contains_key(name) {
            ctx.emit(
                &files[*fi],
                "failpoint-registry",
                *line,
                format!(
                    "test references failpoint \"{name}\" but no engine call site \
                     checks it — the test is arming a point that can never fire"
                ),
            );
        }
    }
    for (name, (fi, line)) in &engine {
        if !armed.contains_key(name) {
            ctx.emit(
                &files[*fi],
                "failpoint-registry",
                *line,
                format!(
                    "engine failpoint \"{name}\" is never armed by any test — \
                     a crash window without coverage; arm it somewhere or remove it"
                ),
            );
        }
    }
}

// ---------------------------------------------------------------------------
// waiver-hygiene
// ---------------------------------------------------------------------------

fn waiver_hygiene(file: &SourceFile, ctx: &mut Ctx) {
    for &line in &file.bare_waiver_lines {
        ctx.emit(
            file,
            "waiver-hygiene",
            line,
            "lint waiver without a reason: state why the rule does not apply here \
             (`// lint:allow(rule-id) because …`)"
                .to_string(),
        );
    }
}

fn in_engine_src(path: &str) -> bool {
    ENGINE_CRATES.iter().any(|c| path.starts_with(c)) && path.contains("/src/")
}
