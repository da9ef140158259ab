//! `obiwan-lint`: project-specific invariant checks for the OBIWAN workspace.
//!
//! The compiler cannot see OBIWAN's cross-cutting invariants — that no lock
//! guard is held across a transport boundary, that every wire tag can make a
//! round trip, that every counter and error variant the platform registers is
//! actually exercised. This crate is a lightweight line/token scanner (no
//! dependencies, no rustc plumbing) that enforces them:
//!
//! | rule id                      | invariant                                            |
//! |------------------------------|------------------------------------------------------|
//! | `guard-across-transport`     | no lock guard live across `.call`/`.cast`/`.send`/`.recv`/`.handle` |
//! | `single-shard-guard`         | no function holds two shard guards except via `lock_pair`/`lock_many` |
//! | `no-io-under-shard-guard`    | no WAL append/fsync/`log_*` call while a shard guard is held |
//! | `wire-tag-coverage`          | every `Message` variant has encode + decode arms and a roundtrip test |
//! | `metrics-coverage`           | every counter in `util::metrics` is incremented somewhere |
//! | `error-variant-coverage`     | every `ObiError` variant is constructed somewhere    |
//! | `no-unwrap-on-lock-or-decode`| no `unwrap()`/`expect()` on lock or decode results outside tests |
//! | `lock-order-cycle`           | no A→B/B→A lock-class inversion anywhere in the static lock-order graph |
//! | `wal-intent-lifecycle`       | every path past `log_put_intent` retires the intent or hands the seq upward |
//! | `allow-without-rationale`    | every `lint:allow` carries a rationale after the `(rule)` closer |
//!
//! A finding on line `N` is suppressed when line `N` or `N-1` carries a
//! `// lint:allow(<rule-id>)` comment. Allows are per-rule, never blanket,
//! and must state *why* (enforced by `allow-without-rationale`).
//!
//! Since the token-stream port, the crate is layered (see DESIGN.md §4f):
//! [`lexer`] produces a lossless token stream (strings/comments/char
//! literals decided once, correctly), [`model`] recovers fn bodies, impl
//! blocks and test regions, [`callgraph`] resolves calls by name across the
//! workspace, and [`lockgraph`]/[`lifecycle`] run the two interprocedural
//! analyses on top. The per-line rules consume [`lexer::masked_lines`],
//! which kills the string/comment false-positive class the old `sanitize()`
//! line heuristics were prone to (e.g. tokens inside multi-line string
//! literals, which plain strings *can* be in Rust).

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

pub mod callgraph;
pub mod lexer;
pub mod lifecycle;
pub mod lockgraph;
pub mod model;

use callgraph::Unit;

/// All rule identifiers, as used in diagnostics and `lint:allow(...)` markers.
pub const RULE_GUARD_ACROSS_TRANSPORT: &str = "guard-across-transport";
pub const RULE_SINGLE_SHARD_GUARD: &str = "single-shard-guard";
pub const RULE_NO_IO_UNDER_SHARD_GUARD: &str = "no-io-under-shard-guard";
pub const RULE_WIRE_TAG_COVERAGE: &str = "wire-tag-coverage";
pub const RULE_METRICS_COVERAGE: &str = "metrics-coverage";
pub const RULE_ERROR_VARIANT_COVERAGE: &str = "error-variant-coverage";
pub const RULE_NO_UNWRAP: &str = "no-unwrap-on-lock-or-decode";
pub const RULE_LOCK_ORDER_CYCLE: &str = "lock-order-cycle";
pub const RULE_WAL_INTENT_LIFECYCLE: &str = "wal-intent-lifecycle";
pub const RULE_ALLOW_AUDIT: &str = "allow-without-rationale";

/// Method-call tokens that acquire a lock guard. Empty parens are part of
/// the token so `stream.write_all(..)` or `file.read(&mut buf)` never match.
const ACQUIRE_TOKENS: &[&str] = &[
    ".lock()",
    ".try_lock()",
    ".read()",
    ".write()",
    ".try_read()",
    ".try_write()",
];

/// Method-call tokens that cross a transport / dispatch boundary: a blocking
/// round trip, a one-way send, or handing a frame to arbitrary handler code.
const TRANSPORT_TOKENS: &[&str] = &[
    ".call(",
    ".cast(",
    ".send(",
    ".recv(",
    ".handle(",
    ".call_stream(",
    ".handle_stream(",
];

/// One analyzer finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Rule identifier (one of the `RULE_*` constants).
    pub rule: &'static str,
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// A source file presented to the rules. Tests construct these from string
/// literals; the binary loads them from disk via [`scan_workspace`].
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Workspace-relative path with `/` separators (e.g. `crates/net/src/tcp.rs`).
    pub path: String,
    pub text: String,
}

impl SourceFile {
    pub fn new(path: impl Into<String>, text: impl Into<String>) -> Self {
        SourceFile {
            path: path.into(),
            text: text.into(),
        }
    }
}

/// Walks the workspace collecting every `.rs` file the rules should see:
/// `crates/*` (including `crates/lint` itself — the analyzer is
/// self-hosting now that allows and literals are decided on the token
/// stream), the root package's `src/`, plus `tests/`, `examples/` and
/// `benches/`. `vendor/`, `target/` and `fixtures/` trees (seeded-violation
/// test data) are never scanned.
pub fn scan_workspace(root: &Path) -> io::Result<Vec<SourceFile>> {
    let mut files = Vec::new();
    for top in ["crates", "src", "tests", "examples", "benches"] {
        let dir = root.join(top);
        if dir.is_dir() {
            walk(root, &dir, &mut files)?;
        }
    }
    files.sort_by(|a, b| a.path.cmp(&b.path));
    Ok(files)
}

fn walk(root: &Path, dir: &Path, out: &mut Vec<SourceFile>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target"
                || name == "vendor"
                || name == "fixtures"
                || name.starts_with('.')
            {
                continue;
            }
            walk(root, &path, out)?;
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .components()
                .map(|c| c.as_os_str().to_string_lossy().into_owned())
                .collect::<Vec<_>>()
                .join("/");
            out.push(SourceFile::new(rel, fs::read_to_string(&path)?));
        }
    }
    Ok(())
}

/// Parses every file once into the shared token/model representation the
/// rules consume.
fn parse_units(files: &[SourceFile]) -> Vec<Unit> {
    files
        .iter()
        .map(|f| Unit::parse(PathBuf::from(&f.path), f.path.clone(), f.text.clone()))
        .collect()
}

/// Runs every rule over `files`, drops `lint:allow`-suppressed findings, and
/// returns the rest ordered by (file, line).
pub fn check(files: &[SourceFile]) -> Vec<Diagnostic> {
    let units = parse_units(files);
    let prepared: Vec<Prepared> = units.iter().map(Prepared::new).collect();
    let mut diags = Vec::new();
    for p in &prepared {
        diags.extend(guard_across_transport(p));
        diags.extend(single_shard_guard(p));
        diags.extend(no_io_under_shard_guard(p));
        diags.extend(no_unwrap_on_lock_or_decode(p));
        diags.extend(allow_without_rationale(p));
    }
    diags.extend(wire_tag_coverage(&prepared));
    diags.extend(metrics_coverage(&prepared));
    diags.extend(error_variant_coverage(&prepared));
    diags.extend(lockgraph::build(&units).cycle_diagnostics());
    diags.extend(lifecycle::check(&units));
    diags.retain(|d| !is_allowed(&prepared, d));
    diags.sort_by(|a, b| (a.file.as_str(), a.line).cmp(&(b.file.as_str(), b.line)));
    diags
}

/// Builds the static lock-order graph for `files` (the `LOCK_GRAPH.json`
/// payload; see [`lockgraph`]).
pub fn lock_graph(files: &[SourceFile]) -> lockgraph::LockGraph {
    lockgraph::build(&parse_units(files))
}

/// Convenience: scan + check.
pub fn run(root: &Path) -> io::Result<Vec<Diagnostic>> {
    let files = scan_workspace(root)?;
    Ok(check(&files))
}

/// Returns the workspace root the binary should analyze by default:
/// `$CARGO_MANIFEST_DIR/../..` (this crate lives at `crates/lint`).
pub fn default_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(Path::parent)
        .map(Path::to_path_buf)
        .unwrap_or(manifest)
}

// ---------------------------------------------------------------------------
// Preprocessing
// ---------------------------------------------------------------------------

/// One `lint:allow(<rule>)` marker, extracted from a comment token. An
/// allow suppresses findings on its own line and the line below.
struct Allow {
    rule: String,
    /// 1-based line of the `lint:allow` text itself.
    line: usize,
    /// Whether rationale text follows the `(rule)` closer.
    has_rationale: bool,
}

/// A file plus its literal-masked lines, test mask, and extracted allows —
/// the view the per-line rules consume. Derived entirely from the [`lexer`]
/// token stream and the [`model`] item model.
struct Prepared {
    path: String,
    /// Lines with comments and string/char literal contents blanked out
    /// (line structure preserved; see [`lexer::masked_lines`]).
    code: Vec<String>,
    /// `true` for lines inside a `#[cfg(test)] mod` block or a
    /// `#[test]`-attributed fn.
    in_test_mod: Vec<bool>,
    allows: Vec<Allow>,
}

impl Prepared {
    fn new(unit: &Unit) -> Self {
        let code = lexer::masked_lines(&unit.src, &unit.tokens);
        let mut in_test_mod = vec![false; code.len()];
        let mut mark = |a: u32, b: u32| {
            let a = a.saturating_sub(1) as usize;
            for idx in a..(b as usize).min(in_test_mod.len()) {
                in_test_mod[idx] = true;
            }
        };
        for &(a, b) in &unit.model.test_regions {
            mark(a, b);
        }
        for f in &unit.model.fns {
            if f.in_test {
                let end = unit
                    .tokens
                    .get(f.body.1)
                    .map(|t| t.line)
                    .unwrap_or(u32::MAX);
                mark(f.line, end);
            }
        }
        Prepared {
            path: unit.rel.clone(),
            code,
            in_test_mod,
            allows: extract_allows(&unit.src, &unit.tokens),
        }
    }

    /// Whether guard/unwrap rules apply to this file at this line: library
    /// source (`crates/*/src`, `src/`) outside `#[cfg(test)]` modules.
    /// Integration tests, examples and benches may hold locks however their
    /// assertions need.
    fn is_lib_code(&self, line_idx: usize) -> bool {
        let lib = (self.path.starts_with("crates/") && self.path.contains("/src/"))
            || self.path.starts_with("src/");
        lib && !self.in_test_mod.get(line_idx).copied().unwrap_or(false)
    }
}

/// Extracts `lint:allow(<rule>)` markers from comment tokens. Allows are
/// recognized *only* in comments — a `lint:allow(` inside a string literal
/// (this crate's own source is full of them) is data, not a suppression.
fn extract_allows(src: &str, tokens: &[lexer::Token]) -> Vec<Allow> {
    const NEEDLE: &str = "lint:allow(";
    let mut out = Vec::new();
    for t in tokens {
        if !matches!(t.kind, lexer::Kind::LineComment | lexer::Kind::BlockComment) {
            continue;
        }
        let text = t.text(src);
        let mut from = 0;
        while let Some(pos) = text[from..].find(NEEDLE) {
            let rule_start = from + pos + NEEDLE.len();
            let Some(close) = text[rule_start..].find(')') else {
                break;
            };
            let rule = text[rule_start..rule_start + close].trim().to_string();
            let line = t.line as usize + text[..from + pos].matches('\n').count();
            let after = &text[rule_start + close + 1..];
            let rationale_region = match after.find(NEEDLE) {
                Some(next) => &after[..next],
                None => after,
            };
            let has_rationale = rationale_region
                .trim_end_matches("*/")
                .chars()
                .any(|c| c.is_alphanumeric());
            out.push(Allow {
                rule,
                line,
                has_rationale,
            });
            from = rule_start + close + 1;
        }
    }
    out
}

fn brace_delta(code_line: &str) -> i32 {
    let mut d = 0;
    for c in code_line.chars() {
        match c {
            '{' => d += 1,
            '}' => d -= 1,
            _ => {}
        }
    }
    d
}

fn find_token(line: &str, tokens: &[&'static str]) -> Option<&'static str> {
    tokens.iter().copied().find(|t| line.contains(t))
}

/// `lint:allow(rule)` in a comment on the diagnostic's line or the line
/// above suppresses it.
fn is_allowed(prepared: &[Prepared], d: &Diagnostic) -> bool {
    prepared.iter().find(|p| p.path == d.file).is_some_and(|p| {
        p.allows
            .iter()
            .any(|a| a.rule == d.rule && (a.line == d.line || a.line + 1 == d.line))
    })
}

// ---------------------------------------------------------------------------
// Rule: allow-without-rationale
// ---------------------------------------------------------------------------

/// Every `lint:allow` is a hole in an invariant; a hole with no explanation
/// cannot be audited. Text after the `(rule)` closer is the rationale.
fn allow_without_rationale(p: &Prepared) -> Vec<Diagnostic> {
    p.allows
        .iter()
        .filter(|a| !a.has_rationale)
        .map(|a| Diagnostic {
            file: p.path.clone(),
            line: a.line,
            rule: RULE_ALLOW_AUDIT,
            message: format!(
                "`lint:allow({})` has no rationale — state why the `{}` \
                 invariant holds here, after the closing paren",
                a.rule, a.rule
            ),
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Rule: guard-across-transport
// ---------------------------------------------------------------------------

/// A lock guard bound by a simple `let` statement, live until its scope
/// closes or it is explicitly dropped.
struct LiveGuard {
    name: String,
    bound_at: usize, // 1-based line
    depth: i32,
}

fn guard_across_transport(p: &Prepared) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let mut depth: i32 = 0;
    let mut live: Vec<LiveGuard> = Vec::new();
    let mut i = 0;
    while i < p.code.len() {
        let line = &p.code[i];
        if !p.is_lib_code(i) {
            depth += brace_delta(line);
            i += 1;
            continue;
        }

        // Same-expression hazard: a guard temporary created in the very
        // expression that crosses the boundary outlives the whole statement.
        if let (Some(acq), Some(tr)) = (
            find_token(line, ACQUIRE_TOKENS),
            find_token(line, TRANSPORT_TOKENS),
        ) {
            diags.push(Diagnostic {
                file: p.path.clone(),
                line: i + 1,
                rule: RULE_GUARD_ACROSS_TRANSPORT,
                message: format!(
                    "lock guard (`{acq}`) and transport call (`{tr}`) in the same \
                     statement: the guard temporary is held across the boundary"
                ),
            });
        } else if let Some(tr) = find_token(line, TRANSPORT_TOKENS) {
            for g in &live {
                diags.push(Diagnostic {
                    file: p.path.clone(),
                    line: i + 1,
                    rule: RULE_GUARD_ACROSS_TRANSPORT,
                    message: format!(
                        "transport call (`{tr}`) while lock guard `{}` (bound on \
                         line {}) is held",
                        g.name, g.bound_at
                    ),
                });
            }
        }

        // Guard bindings: `let g = foo.lock();` possibly wrapped over
        // multiple lines. Join until the statement's `;` (give up at `{`,
        // which means a closure/block initializer this scanner won't model).
        if let Some(stmt_end) = let_statement_end(&p.code, i) {
            let joined: String = p.code[i..=stmt_end].join(" ");
            if let Some((name, bound_line)) = guard_binding(&joined, i) {
                live.push(LiveGuard {
                    name,
                    bound_at: bound_line + 1,
                    depth,
                });
            }
            // Note: no skip past stmt_end — intermediate lines still get
            // depth-tracked below, one per loop iteration.
        }

        // Explicit early release.
        live.retain(|g| !line.contains(&format!("drop({})", g.name)));

        depth += brace_delta(line);
        live.retain(|g| depth >= g.depth);
        i += 1;
    }
    diags
}

/// If line `i` starts a `let` statement, returns the index of the line where
/// the statement's `;` appears (same line for the common case). Returns
/// `None` when the statement opens a block before terminating.
fn let_statement_end(code: &[String], i: usize) -> Option<usize> {
    let first = code[i].trim_start();
    if !(first.starts_with("let ") || first.starts_with("let(")) {
        return None;
    }
    for (j, line) in code.iter().enumerate().skip(i).take(8) {
        let semi = line.find(';');
        let brace = line.find('{');
        match (semi, brace) {
            (Some(s), Some(b)) if b < s => return None,
            (Some(_), _) => return Some(j),
            (None, Some(_)) => return None,
            (None, None) => {}
        }
    }
    None
}

/// If `joined` is a `let <ident> = <expr ending in an acquire call>;`
/// statement, returns the bound name. A leading `*` after `=` is a deref
/// copy, not a guard; destructuring patterns are skipped (conservative).
fn guard_binding(joined: &str, line_idx: usize) -> Option<(String, usize)> {
    let s = joined.trim();
    let rest = s.strip_prefix("let ")?;
    let (pat, init) = rest.split_once('=')?;
    let init = init.trim();
    if init.starts_with('*') {
        return None;
    }
    let body = init.strip_suffix(';')?.trim_end();
    let body = body.strip_suffix('?').unwrap_or(body).trim_end();
    if !ACQUIRE_TOKENS.iter().any(|t| body.ends_with(t)) {
        return None;
    }
    let mut pat = pat.trim();
    if let Some((p, _ty)) = pat.split_once(':') {
        pat = p.trim();
    }
    let pat = pat.strip_prefix("mut ").unwrap_or(pat);
    let simple = !pat.is_empty()
        && pat
            .chars()
            .all(|c| c.is_alphanumeric() || c == '_');
    simple.then(|| (pat.to_string(), line_idx))
}

// ---------------------------------------------------------------------------
// Rule: single-shard-guard
// ---------------------------------------------------------------------------

/// Expression tokens that reach into the striped object space: the
/// per-shard accessor and direct indexing of the stripe array.
const SHARD_SOURCE_TOKENS: &[&str] = &[".shard(", ".shards["];

/// The sanctioned multi-shard acquisition paths. Both sort by stripe index
/// before locking, so they cannot deadlock against each other; ad-hoc
/// second acquisitions lock in textual order and can.
const MULTI_SHARD_OK_TOKENS: &[&str] = &["lock_pair(", "lock_many("];

/// Shard stripes are leaf locks ordered by index: holding one while taking
/// another inverts the order whenever the two ids hash the other way
/// around. Any section needing two stripes must go through
/// [`MULTI_SHARD_OK_TOKENS`], which sort first.
fn single_shard_guard(p: &Prepared) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let mut depth: i32 = 0;
    let mut live: Vec<LiveGuard> = Vec::new();
    let mut i = 0;
    while i < p.code.len() {
        let line = &p.code[i];
        if !p.is_lib_code(i) {
            depth += brace_delta(line);
            i += 1;
            continue;
        }
        if !MULTI_SHARD_OK_TOKENS.iter().any(|t| line.contains(t)) {
            // Shard acquisitions on this line: a shard source feeding an
            // acquire call. Counting both tokens keeps `self.shards.len()`
            // (no acquire) and `other.read()` (no shard source) out.
            let sources: usize = SHARD_SOURCE_TOKENS
                .iter()
                .map(|t| line.matches(t).count())
                .sum();
            let acquires: usize = ACQUIRE_TOKENS
                .iter()
                .map(|t| line.matches(t).count())
                .sum();
            let here = sources.min(acquires);
            if here >= 2 {
                diags.push(Diagnostic {
                    file: p.path.clone(),
                    line: i + 1,
                    rule: RULE_SINGLE_SHARD_GUARD,
                    message: "two shard guards acquired in one statement lock in \
                              textual order, not stripe order; use `lock_pair`/\
                              `lock_many` for multi-shard sections"
                        .to_string(),
                });
            } else if here == 1 {
                for g in &live {
                    diags.push(Diagnostic {
                        file: p.path.clone(),
                        line: i + 1,
                        rule: RULE_SINGLE_SHARD_GUARD,
                        message: format!(
                            "shard guard acquired while shard guard `{}` (bound \
                             on line {}) is still held; use `lock_pair`/\
                             `lock_many` for multi-shard sections",
                            g.name, g.bound_at
                        ),
                    });
                }
            }
            // Track let-bound shard guards, mirroring guard-across-transport.
            if let Some(stmt_end) = let_statement_end(&p.code, i) {
                let joined: String = p.code[i..=stmt_end].join(" ");
                if SHARD_SOURCE_TOKENS.iter().any(|t| joined.contains(t)) {
                    if let Some((name, bound_line)) = guard_binding(&joined, i) {
                        live.push(LiveGuard {
                            name,
                            bound_at: bound_line + 1,
                            depth,
                        });
                    }
                }
            }
        }
        live.retain(|g| !line.contains(&format!("drop({})", g.name)));
        depth += brace_delta(line);
        live.retain(|g| depth >= g.depth);
        i += 1;
    }
    diags
}

// ---------------------------------------------------------------------------
// Rule: no-io-under-shard-guard
// ---------------------------------------------------------------------------

/// Method-call tokens that reach the durability layer: the `Durable::log_*`
/// write-through hooks (names unambiguous enough to match on any receiver)
/// plus raw append/sync/commit calls qualified by a WAL/storage/durability
/// receiver — a bare `.append(` would flag every `Vec::append` under a
/// shard guard.
const WAL_IO_TOKENS: &[&str] = &[
    ".log_dirty(",
    ".log_op(",
    ".log_put_intent(",
    ".log_put_abandoned(",
    ".log_confirm(",
    ".log_clean(",
    ".log_client_state(",
    "wal.append(",
    "wal.sync(",
    "wal.commit(",
    "storage.append(",
    "storage.sync(",
    "durable.commit(",
];

/// Storage latency must never sit inside a shard critical section: a WAL
/// append can fsync (group commit), and a stalled disk would then stall
/// every invocation hashing to that stripe. The durability hooks read
/// object state under a short guard of their own and log *after* it is
/// released; this rule keeps that discipline from eroding.
fn no_io_under_shard_guard(p: &Prepared) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let mut depth: i32 = 0;
    let mut live: Vec<LiveGuard> = Vec::new();
    let mut i = 0;
    while i < p.code.len() {
        let line = &p.code[i];
        if !p.is_lib_code(i) {
            depth += brace_delta(line);
            i += 1;
            continue;
        }
        let shard_acquire = SHARD_SOURCE_TOKENS.iter().any(|t| line.contains(t))
            && find_token(line, ACQUIRE_TOKENS).is_some();
        if let Some(io) = find_token(line, WAL_IO_TOKENS) {
            // Same-statement hazard: the guard temporary created in the
            // expression feeding the IO call outlives the whole statement.
            if shard_acquire {
                diags.push(Diagnostic {
                    file: p.path.clone(),
                    line: i + 1,
                    rule: RULE_NO_IO_UNDER_SHARD_GUARD,
                    message: format!(
                        "durability call (`{io}`) and shard guard acquisition \
                         in the same statement: the guard temporary is held \
                         across the storage I/O"
                    ),
                });
            } else {
                for g in &live {
                    diags.push(Diagnostic {
                        file: p.path.clone(),
                        line: i + 1,
                        rule: RULE_NO_IO_UNDER_SHARD_GUARD,
                        message: format!(
                            "durability call (`{io}`) while shard guard `{}` \
                             (bound on line {}) is held; copy the state out, \
                             release the stripe, then log",
                            g.name, g.bound_at
                        ),
                    });
                }
            }
        }
        // Track let-bound shard guards, mirroring single-shard-guard.
        if let Some(stmt_end) = let_statement_end(&p.code, i) {
            let joined: String = p.code[i..=stmt_end].join(" ");
            if SHARD_SOURCE_TOKENS.iter().any(|t| joined.contains(t)) {
                if let Some((name, bound_line)) = guard_binding(&joined, i) {
                    live.push(LiveGuard {
                        name,
                        bound_at: bound_line + 1,
                        depth,
                    });
                }
            }
        }
        live.retain(|g| !line.contains(&format!("drop({})", g.name)));
        depth += brace_delta(line);
        live.retain(|g| depth >= g.depth);
        i += 1;
    }
    diags
}

// ---------------------------------------------------------------------------
// Rule: no-unwrap-on-lock-or-decode
// ---------------------------------------------------------------------------

fn no_unwrap_on_lock_or_decode(p: &Prepared) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for (i, line) in p.code.iter().enumerate() {
        if !p.is_lib_code(i) {
            continue;
        }
        for acq in ACQUIRE_TOKENS {
            for bad in [".unwrap()", ".expect("] {
                if line.contains(&format!("{acq}{bad}")) {
                    diags.push(Diagnostic {
                        file: p.path.clone(),
                        line: i + 1,
                        rule: RULE_NO_UNWRAP,
                        message: format!(
                            "`{bad}` directly on a lock acquisition (`{acq}`): \
                             the facade locks never fail, and std locks must \
                             not panic on poison outside tests"
                        ),
                    });
                }
            }
        }
        if let Some(pos) = line.find("decode(").or_else(|| line.find("decode_inner(")) {
            let tail = &line[pos..];
            for bad in [".unwrap()", ".expect("] {
                if tail.contains(bad) {
                    diags.push(Diagnostic {
                        file: p.path.clone(),
                        line: i + 1,
                        rule: RULE_NO_UNWRAP,
                        message: format!(
                            "`{bad}` on a decode result: malformed frames are \
                             expected input and must surface as ObiError::Decode"
                        ),
                    });
                }
            }
        }
    }
    diags
}

// ---------------------------------------------------------------------------
// Rule: wire-tag-coverage
// ---------------------------------------------------------------------------

const MESSAGE_RS: &str = "crates/wire/src/message.rs";

fn wire_tag_coverage(prepared: &[Prepared]) -> Vec<Diagnostic> {
    let Some(msg) = prepared.iter().find(|p| p.path == MESSAGE_RS) else {
        return Vec::new();
    };
    let variants = enum_variants(msg, "pub enum Message");
    if variants.is_empty() {
        return vec![Diagnostic {
            file: msg.path.clone(),
            line: 1,
            rule: RULE_WIRE_TAG_COVERAGE,
            message: "could not locate `pub enum Message` variants".into(),
        }];
    }
    // `pub fn encode(` pins Message's own encoder: the file also contains
    // private `fn encode` helpers on WireMode/NameOp/ReplicaBatch and a
    // `pub fn encoded_size_hint`.
    let encode = fn_body_text(msg, "pub fn encode(");
    let decode = fn_body_text(msg, "fn decode_inner(");
    // Roundtrip coverage: the variant appears in message.rs's own test
    // module or in any integration-test file.
    let mut test_text = String::new();
    for (i, line) in msg.code.iter().enumerate() {
        if msg.in_test_mod[i] {
            test_text.push_str(line);
            test_text.push('\n');
        }
    }
    for p in prepared {
        if p.path.starts_with("tests/") {
            for line in &p.code {
                test_text.push_str(line);
                test_text.push('\n');
            }
        }
    }

    let mut diags = Vec::new();
    for (name, line) in &variants {
        let token = format!("Message::{name}");
        let mut missing = Vec::new();
        if !contains_token(&encode, &token) {
            missing.push("an encode arm");
        }
        if !contains_token(&decode, &token) {
            missing.push("a decode arm");
        }
        if !contains_token(&test_text, &token) {
            missing.push("a roundtrip test");
        }
        if !missing.is_empty() {
            diags.push(Diagnostic {
                file: msg.path.clone(),
                line: *line,
                rule: RULE_WIRE_TAG_COVERAGE,
                message: format!(
                    "wire variant `{name}` is missing {}",
                    missing.join(" and ")
                ),
            });
        }
    }
    diags
}

/// Collects `(variant, 1-based line)` for a braced enum, skipping
/// attributes, doc comments, and nested struct-variant fields.
fn enum_variants(p: &Prepared, header: &str) -> Vec<(String, usize)> {
    let Some(start) = p.code.iter().position(|l| l.contains(header)) else {
        return Vec::new();
    };
    let mut variants = Vec::new();
    let mut depth = 0i32;
    for (i, line) in p.code.iter().enumerate().skip(start) {
        if i > start && depth <= 0 {
            break;
        }
        if i > start && depth == 1 {
            let t = line.trim();
            let ident: String = t
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect();
            if ident
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_uppercase())
            {
                variants.push((ident, i + 1));
            }
        }
        depth += brace_delta(line);
    }
    variants
}

/// The sanitized text of the first function whose signature contains
/// `header`, from its opening brace to the matching close.
fn fn_body_text(p: &Prepared, header: &str) -> String {
    let Some(start) = p
        .code
        .iter()
        .position(|l| l.contains(header) && !l.trim_start().starts_with("//"))
    else {
        return String::new();
    };
    let mut out = String::new();
    let mut depth = 0i32;
    let mut opened = false;
    for line in p.code.iter().skip(start) {
        out.push_str(line);
        out.push('\n');
        depth += brace_delta(line);
        if line.contains('{') {
            opened = true;
        }
        if opened && depth <= 0 {
            break;
        }
    }
    out
}

/// True when `token` occurs in `text` not followed by an identifier char
/// (so `Message::Get` does not match `Message::GetChunk`).
fn contains_token(text: &str, token: &str) -> bool {
    let mut from = 0;
    while let Some(pos) = text[from..].find(token) {
        let end = from + pos + token.len();
        let boundary = text[end..]
            .chars()
            .next()
            .map(|c| !(c.is_alphanumeric() || c == '_'))
            .unwrap_or(true);
        if boundary {
            return true;
        }
        from = end;
    }
    false
}

// ---------------------------------------------------------------------------
// Rule: metrics-coverage
// ---------------------------------------------------------------------------

const METRICS_RS: &str = "crates/util/src/metrics.rs";

fn metrics_coverage(prepared: &[Prepared]) -> Vec<Diagnostic> {
    let Some(metrics) = prepared.iter().find(|p| p.path == METRICS_RS) else {
        return Vec::new();
    };
    // The `macro_rules! counters` definition region, by brace depth. Lines
    // inside it are the generation template, not hand-written accessors.
    let mut in_definition = vec![false; metrics.code.len()];
    let mut depth: i32 = 0;
    let mut in_def = false;
    for (i, line) in metrics.code.iter().enumerate() {
        let t = line.trim();
        if !in_def && t.starts_with("macro_rules!") && t.contains("counters") {
            in_def = true;
            depth = 0;
        }
        if in_def {
            in_definition[i] = true;
            depth += line.matches('{').count() as i32;
            depth -= line.matches('}').count() as i32;
            if depth <= 0 && line.contains('}') {
                in_def = false;
            }
        }
    }
    // Counter registrations: `incr_x, add_x, field;` lines inside the
    // `counters!` invocation (doc comments arrive blanked, so only the
    // entry lines parse as three identifiers).
    let mut counters: Vec<(String, String, String, usize)> = Vec::new();
    let mut in_macro = false;
    for (i, line) in metrics.code.iter().enumerate() {
        let t = line.trim();
        if !in_definition[i] && t.starts_with("counters!") && t.contains('{') {
            in_macro = true;
            continue;
        }
        if in_macro {
            if t.starts_with('}') {
                in_macro = false;
                continue;
            }
            let parts: Vec<&str> = t
                .trim_end_matches(';')
                .split(',')
                .map(str::trim)
                .collect();
            if parts.len() == 3 && parts.iter().all(|s| is_ident(s)) {
                counters.push((
                    parts[0].to_string(),
                    parts[1].to_string(),
                    parts[2].to_string(),
                    i + 1,
                ));
            }
        }
    }
    let mut diags = Vec::new();
    if counters.is_empty() {
        diags.push(Diagnostic {
            file: metrics.path.clone(),
            line: 1,
            rule: RULE_METRICS_COVERAGE,
            message: "no `counters!` invocation found; the metrics-coverage \
                      rule cannot see the counter registry (was the macro \
                      renamed?)"
                .to_string(),
        });
    }
    // Drift guard: snapshot/reset/since must be generated by the macro. A
    // hand-written copy outside the definition silently stops covering new
    // counters.
    for (i, line) in metrics.code.iter().enumerate() {
        if in_definition[i] {
            continue;
        }
        for name in ["fn snapshot(", "fn reset(", "fn since("] {
            if line.contains(name) {
                diags.push(Diagnostic {
                    file: metrics.path.clone(),
                    line: i + 1,
                    rule: RULE_METRICS_COVERAGE,
                    message: format!(
                        "`{}` is hand-written outside the `counters!` macro; \
                         it will drift from the counter registry — generate \
                         it from the macro instead",
                        name.trim_end_matches('(')
                    ),
                });
            }
        }
    }
    for (incr, add, field, line) in &counters {
        let incr_call = format!(".{incr}(");
        let add_call = format!(".{add}(");
        let used = prepared.iter().any(|p| {
            p.path != METRICS_RS
                && p.code
                    .iter()
                    .any(|l| l.contains(&incr_call) || l.contains(&add_call))
        });
        if !used {
            diags.push(Diagnostic {
                file: metrics.path.clone(),
                line: *line,
                rule: RULE_METRICS_COVERAGE,
                message: format!(
                    "metrics counter `{field}` is registered but neither \
                     `{incr}` nor `{add}` is ever called"
                ),
            });
        }
    }
    diags
}

fn is_ident(s: &str) -> bool {
    !s.is_empty()
        && s.chars().all(|c| c.is_alphanumeric() || c == '_')
        && !s.chars().next().unwrap_or('0').is_ascii_digit()
}

// ---------------------------------------------------------------------------
// Rule: error-variant-coverage
// ---------------------------------------------------------------------------

const ERROR_RS: &str = "crates/util/src/error.rs";

fn error_variant_coverage(prepared: &[Prepared]) -> Vec<Diagnostic> {
    let Some(err) = prepared.iter().find(|p| p.path == ERROR_RS) else {
        return Vec::new();
    };
    let variants = enum_variants(err, "pub enum ObiError");
    let mut diags = Vec::new();
    for (name, line) in &variants {
        let token = format!("ObiError::{name}");
        let used = prepared.iter().any(|p| {
            p.path != ERROR_RS
                && p.code.iter().any(|l| contains_token(l, &token))
        });
        if !used {
            diags.push(Diagnostic {
                file: err.path.clone(),
                line: *line,
                rule: RULE_ERROR_VARIANT_COVERAGE,
                message: format!(
                    "error variant `{name}` is declared but never constructed \
                     or matched outside error.rs"
                ),
            });
        }
    }
    diags
}

#[cfg(test)]
mod proptests;
#[cfg(test)]
mod tests;
