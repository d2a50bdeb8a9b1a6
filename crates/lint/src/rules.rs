//! The declarative rule set: every invariant `triad-lint` enforces.
//!
//! Each rule has a stable id (printed by `--list-rules`, documented in
//! docs/ARCHITECTURE.md) and scopes itself by path, so fixtures can exercise
//! a rule by parsing a snippet under a *virtual* path. Rules never inspect raw
//! text: they match token patterns from [`SourceFile`], so strings and
//! comments can't trigger them.

use crate::diag::Diagnostic;
use crate::scanner::{SourceFile, Token, TokenKind};
use std::collections::BTreeMap;

/// Metadata for one rule.
#[derive(Debug, Clone, Copy)]
pub struct Rule {
    /// Stable id: `--list-rules` output, ARCHITECTURE.md key.
    pub id: &'static str,
    /// One-line summary of the enforced invariant.
    pub summary: &'static str,
}

/// Every rule this pass enforces, in evaluation order.
pub const RULES: &[Rule] = &[
    Rule {
        id: "append-stage-no-fsync",
        summary: "no durable-sync calls inside the commit append stage",
    },
    Rule { id: "lock-order", summary: "nested lock acquisitions follow the declared rank order" },
    Rule {
        id: "block-cache-checksum",
        summary: "blocks enter the shared cache only via the checksum-verified decode path",
    },
    Rule {
        id: "checkpoint-fs-region",
        summary: "checkpoint filesystem mutation stays inside the CHECKPOINT-FS region",
    },
    Rule {
        id: "failpoint-registry",
        summary: "failpoints referenced by tests exist in the engine and vice versa",
    },
];

/// Crates whose `src/` trees count as engine code (block-cache inserts,
/// failpoint sites). Benches, workloads and the lint itself are not engine
/// code.
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
/// durability.rs; the table with rationale lives in
/// docs/ARCHITECTURE.md ("Enforced invariants").
const LOCK_RANKS: &[(&str, u32)] = &[
    ("view", 2),
    ("gc", 5),
    ("router", 8),
    ("wal", 10),
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

struct Ctx {
    diags: Vec<Diagnostic>,
}

impl Ctx {
    fn emit(&mut self, file: &SourceFile, rule: &'static str, line: u32, message: String) {
        self.diags.push(Diagnostic { rule, path: file.path.clone(), line, message });
    }

    /// Reports a region whose markers are missing, duplicated or out of order.
    /// Deleting a marker (accidentally or to dodge a rule) is itself a violation.
    fn missing_region(&mut self, file: &SourceFile, rule: &'static str, markers: Markers) {
        self.emit(
            file,
            rule,
            1,
            format!(
                "the {}/{} markers must appear exactly once each, begin before end; \
                 the invariant region they delimit is rule-checked and must not vanish",
                markers.0, markers.1
            ),
        );
    }
}

/// Runs every rule over `files`, returning diagnostics sorted by location.
pub fn run_all(files: &[SourceFile]) -> Vec<Diagnostic> {
    let mut ctx = Ctx { diags: Vec::new() };
    for file in files {
        append_stage_no_fsync(file, &mut ctx);
        lock_order(file, &mut ctx);
        block_cache_checksum(file, &mut ctx);
        checkpoint_fs_region(file, &mut ctx);
    }
    failpoint_registry(files, &mut ctx);
    let mut diags = ctx.diags;
    diags.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    diags
}

/// The begin/end marker pair of an invariant region.
type Markers = (&'static str, &'static str);

/// A marker comment is one whose text — after the comment delimiters — starts
/// with the marker, so prose *mentioning* a marker never matches.
fn is_marker(comment: &str, marker: &str) -> bool {
    comment.trim_start_matches(['/', '!', '*', ' ', '\t']).starts_with(marker)
}

/// The two line ranges (exclusive of the marker comments themselves) of a
/// named region, or `None` when either marker is missing or duplicated.
fn find_region(file: &SourceFile, (begin, end): Markers) -> Option<(u32, u32)> {
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
// append-stage-no-fsync
// ---------------------------------------------------------------------------

/// The file holding the commit pipeline's append stage (run under the WAL
/// lock), and the markers delimiting that stage.
const APPEND_STAGE_FILE: &str = "crates/core/src/commit.rs";
const APPEND_STAGE: Markers = ("PIPELINE-APPEND-STAGE-BEGIN", "PIPELINE-APPEND-STAGE-END");

fn append_stage_no_fsync(file: &SourceFile, ctx: &mut Ctx) {
    if file.path != APPEND_STAGE_FILE {
        return;
    }
    let Some(range) = find_region(file, APPEND_STAGE) else {
        ctx.missing_region(file, "append-stage-no-fsync", APPEND_STAGE);
        return;
    };
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
const BLOCK_CACHE_REGION: Markers = ("BLOCK-CACHE-CHECKSUM-BEGIN", "BLOCK-CACHE-CHECKSUM-END");

/// Lexically, feeding the cache means calling `.get_or_load(` — the single
/// entry point of the `BlockFetch` trait. Any such call outside the marked
/// region (tests excepted) is flagged, as is a region that lost its
/// `read_block` loader or a reader.rs that lost the markers entirely.
fn block_cache_checksum(file: &SourceFile, ctx: &mut Ctx) {
    if !in_engine_src(&file.path) {
        return;
    }
    let region = find_region(file, BLOCK_CACHE_REGION);
    if file.path == "crates/sstable/src/reader.rs" {
        match region {
            None => {
                ctx.missing_region(file, "block-cache-checksum", BLOCK_CACHE_REGION);
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
// checkpoint-fs-region
// ---------------------------------------------------------------------------

/// The CHECKPOINT-FS markers in crates/core/src/checkpoint.rs delimit the one
/// region allowed to mutate the filesystem on behalf of a checkpoint: links,
/// copies, directory creation and the pending-marker deletion. Keeping every
/// mutation in one marked region makes the feature's whole on-disk footprint
/// auditable at a glance — a stray link or delete elsewhere in the module is
/// exactly how a checkpoint starts touching primary-owned paths.
const CHECKPOINT_FS: Markers = ("CHECKPOINT-FS-BEGIN", "CHECKPOINT-FS-END");

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
    let region = find_region(file, CHECKPOINT_FS);
    if region.is_none() {
        ctx.missing_region(file, "checkpoint-fs-region", CHECKPOINT_FS);
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

fn in_engine_src(path: &str) -> bool {
    ENGINE_CRATES.iter().any(|c| path.starts_with(c)) && path.contains("/src/")
}
