//! A lightweight item parser on top of the [`crate::lexer`] stream —
//! the linter's one front end.
//!
//! This is *not* a Rust grammar. It recovers exactly the facts the
//! per-file rules and the interprocedural passes need, in one walk
//! over the tokens:
//!
//! * `fn` items with their enclosing `impl`/`trait` context (so
//!   `self.m()` can be resolved precisely), plus two stage facts for
//!   `no-untraced-stage`: whether the body opens an obs span and
//!   whether it touches the causal tracer;
//! * call expressions inside each body — `self.m(...)`, `x.m(...)`,
//!   `Type::assoc(...)`, `module::free(...)`, `free(...)` — with
//!   turbofish skipped and macro invocations excluded;
//! * *sites*: panic sites (`.unwrap()`, `.expect(..)`, `panic!`-family
//!   macros, slice/array indexing), ambient time/entropy, unordered
//!   containers, float `partial_cmp(..).unwrap()`, direct fs I/O,
//!   unbounded queue constructors and arrival-order joins. Every token
//!   passes the site detector exactly once, whether or not the item
//!   walk recognised the code around it: a site inside a fn body
//!   belongs to that fn, any other (struct fields, signatures, `use`
//!   items, code after a header the parser gave up on) to the file;
//! * lock acquisitions (`*.lock()`) with the lexical block span they
//!   are held for;
//! * `use` declarations, so type aliases (`use a::Foo as Bar`) resolve
//!   to their real names and paths carry a crate hint;
//! * the line ranges of `#[cfg(test)]` items.
//!
//! Everything the parser cannot model (closures passed as values,
//! function pointers, fully-qualified `<T as Tr>::m` calls, macro
//! bodies) degrades to "no call edge", never to a crash: like the
//! lexer, the parser is total on hostile input.

use crate::lexer::{LexFile, Tok, Token};
use std::collections::BTreeMap;

/// How a call site names its callee.
#[derive(Clone, Debug, PartialEq)]
pub enum CallTarget {
    /// `self.m(...)` or `Self::m(...)` — resolved against the enclosing
    /// impl/trait type.
    SelfMethod(String),
    /// `x.m(...)` — a method call on a receiver of unknown type.
    Method(String),
    /// `a::b::f(...)`, `Type::assoc(...)`, or a bare `f(...)` — the
    /// full segment list, aliases not yet applied.
    Path(Vec<String>),
}

/// One call expression inside a fn body.
#[derive(Clone, Debug, PartialEq)]
pub struct Call {
    /// 1-based line of the callee name.
    pub line: u32,
    /// Sequence number within the file (shared with sites and locks,
    /// source order).
    pub seq: u32,
    /// The named callee.
    pub target: CallTarget,
}

/// The kinds of sites the parser records.
#[derive(Clone, Debug, PartialEq)]
pub enum SiteKind {
    /// `.unwrap()` / `.expect(` — the detail says which.
    PanicUnwrap(&'static str),
    /// `panic!` / `unreachable!` / `todo!` / `unimplemented!`.
    PanicMacro(&'static str),
    /// `expr[...]` indexing (out-of-bounds panics).
    Index,
    /// `Instant::now` / `SystemTime::now` — the detail says which.
    AmbientTime(&'static str),
    /// `thread_rng` / `from_entropy` / `OsRng` / `getrandom`.
    AmbientEntropy(String),
    /// A `HashMap`/`HashSet` mention outside `use` items.
    UnorderedContainer(String),
    /// `.partial_cmp(..).unwrap()` / `.expect(..)` — NaN panics.
    FloatPartialCmp,
    /// Direct fs I/O: `std::fs`, `File::open`/`create`, `OpenOptions`.
    FsIo(&'static str),
    /// A queue born without a capacity: `VecDeque::new`,
    /// `LinkedList::new`, `mpsc::channel`.
    UnboundedQueue(&'static str),
    /// `.try_iter()` / `.try_recv()` — results in arrival order.
    ArrivalJoin(&'static str),
    /// A `for` header naming a receiver (`rx`, `receiver`, `*_rx`,
    /// `rx_*`) — drains results in completion order.
    ReceiverLoop(String),
}

/// One site: in a fn body ([`FnItem::sites`]) or outside every fn
/// ([`ParsedFile::sites`]).
#[derive(Clone, Debug, PartialEq)]
pub struct Site {
    /// 1-based line.
    pub line: u32,
    /// Sequence number within the file (shared with calls and locks,
    /// source order).
    pub seq: u32,
    /// What was found.
    pub kind: SiteKind,
}

/// One `*.lock()` acquisition and the lexical span it is held for.
///
/// The guard is modelled as held from its acquisition to the end of the
/// enclosing block (`}` at a shallower brace depth releases it) — the
/// repo's `{ let g = x.lock(); ... }` scoping idiom maps exactly onto
/// this; early `drop(g)` calls are not modelled (conservative: spans
/// may be too long, never too short).
#[derive(Clone, Debug, PartialEq)]
pub struct LockSpan {
    /// 1-based line of the acquisition.
    pub line: u32,
    /// Sequence number at acquisition.
    pub start_seq: u32,
    /// Sequence number at release (end of block or fn).
    pub end_seq: u32,
    /// Lock identity: `Type::field` for `self.field.lock()` inside an
    /// `impl Type`; `None` when the receiver is a local (unresolvable).
    pub lock_id: Option<String>,
}

/// One parsed `fn` item.
#[derive(Clone, Debug)]
pub struct FnItem {
    /// Workspace-relative file path (forward slashes).
    pub path: String,
    /// The crate the file belongs to (`serve`, `ml`, ... / `.` for the
    /// root package).
    pub crate_name: String,
    /// Enclosing `impl Type`/`trait Type` name, if any.
    pub self_ty: Option<String>,
    /// `impl Trait for Type` — the trait name, if any.
    pub trait_of: Option<String>,
    /// The fn's own name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// True when the fn sits in test context (test file or a
    /// `#[cfg(test)]` item) — excluded from the call graph.
    pub is_test: bool,
    /// Calls made in the body, in source order.
    pub calls: Vec<Call>,
    /// Sites in the body, in source order.
    pub sites: Vec<Site>,
    /// Lock acquisitions with their held spans.
    pub locks: Vec<LockSpan>,
    /// The body (nested fns included) opens an obs stage span: `.span(`.
    pub opens_span: bool,
    /// The body (nested fns included) touches the causal tracer: a
    /// `tracer`, `hop` or `trace_*` identifier.
    pub touches_tracer: bool,
}

impl FnItem {
    /// `Type::name` / `name` — the display form used in chains.
    pub fn display(&self) -> String {
        match &self.self_ty {
            Some(t) => format!("{t}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// Everything parsed out of one file.
#[derive(Clone, Debug, Default)]
pub struct ParsedFile {
    /// Every fn item, in source order.
    pub fns: Vec<FnItem>,
    /// `use` aliases: visible name -> full path segments.
    pub uses: BTreeMap<String, Vec<String>>,
    /// Sites outside every fn body, in source order.
    pub sites: Vec<Site>,
    /// Line ranges (inclusive) of `#[cfg(test)]` items, attribute
    /// included.
    pub test_items: Vec<(u32, u32)>,
    /// The whole file is test context ([`crate::rules::is_test_file`]).
    pub all_test: bool,
}

impl ParsedFile {
    /// True when `line` sits in test context: a test file, or inside a
    /// `#[cfg(test)]` item.
    pub fn is_test_line(&self, line: u32) -> bool {
        self.all_test || self.test_items.iter().any(|&(from, to)| from <= line && line <= to)
    }
}

/// Maps a workspace-relative path to its crate name: `crates/x/...` ->
/// `x`, everything else (root `src/`, `tests/`, `examples/`) -> `.`.
pub fn crate_of(path: &str) -> String {
    match path.strip_prefix("crates/").and_then(|r| r.split('/').next()) {
        Some(c) => c.to_string(),
        None => ".".to_string(),
    }
}

/// Maps an extern-crate path segment to the crate directory name it
/// resolves to in this workspace (`alba_ml` -> `ml`, `albadross` ->
/// `core`), or `None` for external crates (`std`, vendored shims).
pub fn crate_of_extern(seg: &str) -> Option<String> {
    match seg {
        "albadross" => Some("core".to_string()),
        "albadross_repro" => Some(".".to_string()),
        _ => seg.strip_prefix("alba_").map(str::to_string),
    }
}

const KEYWORDS: &[&str] = &[
    "as", "async", "await", "box", "break", "const", "continue", "crate", "dyn", "else", "enum",
    "extern", "false", "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move",
    "mut", "pub", "ref", "return", "static", "struct", "super", "trait", "true", "type", "union",
    "unsafe", "use", "where", "while", "yield",
];

fn is_keyword(s: &str) -> bool {
    KEYWORDS.contains(&s)
}

fn ident_at(toks: &[Token], i: usize) -> Option<&str> {
    match toks.get(i) {
        Some(Token { tok: Tok::Ident(s), .. }) => Some(s.as_str()),
        _ => None,
    }
}

fn punct_at(toks: &[Token], i: usize) -> Option<char> {
    match toks.get(i) {
        Some(Token { tok: Tok::Punct(p), .. }) => Some(*p),
        _ => None,
    }
}

fn is_punct(toks: &[Token], i: usize, c: char) -> bool {
    punct_at(toks, i) == Some(c)
}

/// Index just past a balanced `<...>` group opening at `open`, or
/// `None` when it does not close (the parser then treats the `<` as a
/// comparison and moves on).
fn skip_angles(toks: &[Token], open: usize) -> Option<usize> {
    let mut depth = 0i32;
    let mut i = open;
    // Bound the scan: an unclosed `<` (a comparison) must not swallow
    // the rest of the file.
    let limit = (open + 256).min(toks.len());
    while i < limit {
        match punct_at(toks, i) {
            Some('<') => depth += 1,
            Some('>') => {
                depth -= 1;
                if depth == 0 {
                    return Some(i + 1);
                }
            }
            Some(';') | Some('{') => return None,
            _ => {}
        }
        i += 1;
    }
    None
}

/// The scope stack entry: what an open `{` belongs to.
#[derive(Clone, Debug)]
enum Scope {
    /// `impl Type { ... }` / `impl Trait for Type { ... }`.
    Impl { self_ty: String, trait_of: Option<String> },
    /// `trait Name { ... }` (default method bodies).
    Trait { name: String },
    /// A fn body; the index into `out.fns`.
    Fn { idx: usize },
    /// Any other brace group (blocks, structs, matches, modules).
    Other,
}

/// Parses one lexed file into items and sites. Total on hostile
/// input: malformed headers simply produce no item (their sites are
/// still recorded, at file level), never a panic.
pub fn parse_file(path: &str, lexed: &LexFile) -> ParsedFile {
    let toks = &lexed.tokens;
    let mut out =
        ParsedFile { all_test: crate::rules::is_test_file(path), ..ParsedFile::default() };
    let crate_name = crate_of(path);

    // Scope tracking: every `{` pushes, every `}` pops. `pending` holds
    // the scope the *next* `{` should open (set by impl/trait/fn
    // headers).
    let mut scopes: Vec<Scope> = Vec::new();
    let mut pending: Option<Scope> = None;
    // Open fn bodies, innermost last (supports nested fns).
    let mut fn_stack: Vec<FnFrame> = Vec::new();
    let mut sites = SiteWalk::default();

    let mut i = 0usize;
    while i < toks.len() {
        // Every token up to `i` passes the site detector first, so the
        // header and body skips below can never hide a site.
        sites.advance(i + 1, toks, &mut out, &fn_stack);

        // ---- structural: use / impl / trait / fn headers ------------
        match ident_at(toks, i) {
            Some("use") if fn_stack.is_empty() => {
                i = parse_use(toks, i, &mut out.uses);
                continue;
            }
            Some("impl") => {
                if let Some((scope, next)) = parse_impl_header(toks, i) {
                    pending = Some(scope);
                    i = next;
                    continue;
                }
            }
            Some("trait") => {
                if let Some(name) = ident_at(toks, i + 1) {
                    if !is_keyword(name) {
                        pending = Some(Scope::Trait { name: name.to_string() });
                        i += 2;
                        continue;
                    }
                }
            }
            Some("fn") => {
                if let Some(name) = ident_at(toks, i + 1) {
                    let (self_ty, trait_of) = enclosing_type(&scopes);
                    let line = toks[i].line;
                    out.fns.push(FnItem {
                        path: path.to_string(),
                        crate_name: crate_name.clone(),
                        self_ty,
                        trait_of,
                        name: name.to_string(),
                        line,
                        is_test: out.is_test_line(line),
                        calls: Vec::new(),
                        sites: Vec::new(),
                        locks: Vec::new(),
                        opens_span: false,
                        touches_tracer: false,
                    });
                    pending = Some(Scope::Fn { idx: out.fns.len() - 1 });
                    // Skip the signature: nothing between `fn name` and
                    // the body `{` (or a bodyless `;`) is a call. Paren
                    // groups (params) and angle groups (generics) are
                    // skipped wholesale so `fn f(g: impl Fn() -> u8)`
                    // bounds don't look like body braces.
                    i = skip_signature(toks, i + 2);
                    continue;
                }
            }
            _ => {}
        }

        match punct_at(toks, i) {
            Some('{') => {
                scopes.push(pending.take().unwrap_or(Scope::Other));
                if let Some(Scope::Fn { idx }) = scopes.last() {
                    fn_stack.push((*idx, Vec::new()));
                }
                i += 1;
                continue;
            }
            Some('}') => {
                match scopes.pop() {
                    Some(Scope::Fn { idx }) => {
                        // Close the fn: release its remaining locks.
                        if let Some((fidx, open_locks)) = fn_stack.pop() {
                            debug_assert_eq!(fidx, idx);
                            for (li, _) in open_locks {
                                out.fns[fidx].locks[li].end_seq = sites.seq;
                            }
                        }
                    }
                    Some(_) => {
                        // A block inside a fn closed: locks acquired in
                        // deeper blocks are released here.
                        if let Some((fidx, open_locks)) = fn_stack.last_mut() {
                            let depth = scopes.len();
                            open_locks.retain(|&(li, acq_depth)| {
                                if acq_depth > depth {
                                    out.fns[*fidx].locks[li].end_seq = sites.seq;
                                    false
                                } else {
                                    true
                                }
                            });
                        }
                    }
                    None => {}
                }
                i += 1;
                continue;
            }
            _ => {}
        }

        // A header that never found its `{` (e.g. `impl Trait for T;`
        // in hostile input) must not leak onto the next brace.
        if is_punct(toks, i, ';') {
            pending = None;
        }

        // ---- body facts: calls and locks ----------------------------
        if !fn_stack.is_empty() && !sites.in_use {
            i = scan_body_token(toks, i, &mut out.fns, &mut fn_stack, scopes.len(), &mut sites.seq);
            continue;
        }
        i += 1;
    }
    sites.advance(toks.len(), toks, &mut out, &fn_stack);

    // EOF with open fns (unterminated input): close their locks.
    while let Some((fidx, open_locks)) = fn_stack.pop() {
        for (li, _) in open_locks {
            out.fns[fidx].locks[li].end_seq = sites.seq;
        }
    }
    out.fns.sort_by(|a, b| a.line.cmp(&b.line).then(a.name.cmp(&b.name)));
    out
}

/// One open fn body: its index into `fns` and its open locks as
/// (index into `fns[i].locks`, brace depth at acquisition).
type FnFrame = (usize, Vec<(usize, usize)>);

/// The site detector's cursor. It visits every token once, in order,
/// trailing the item walk in [`parse_file`].
#[derive(Default)]
struct SiteWalk {
    /// The next token to visit.
    next: usize,
    /// File-wide sequence counter, shared by sites, calls and locks.
    seq: u32,
    /// The last visited token sits inside a `use ...;` item.
    in_use: bool,
}

impl SiteWalk {
    /// Visits every token before `end`, recording sites, stage facts
    /// and `#[cfg(test)]` items. `fn_stack` holds the fn bodies open at
    /// those tokens.
    fn advance(&mut self, end: usize, toks: &[Token], out: &mut ParsedFile, fn_stack: &[FnFrame]) {
        while self.next < end {
            let i = self.next;
            self.next += 1;
            match &toks[i].tok {
                Tok::Ident(s) if s == "use" && !self.in_use => self.in_use = true,
                Tok::Punct(';') if self.in_use => self.in_use = false,
                _ => {}
            }
            if let Some(range) = cfg_test_item(toks, i) {
                out.test_items.push(range);
            }
            // Stage facts hold for every open fn: a nested fn's body
            // is part of its parent's.
            if is_punct(toks, i, '.')
                && ident_at(toks, i + 1) == Some("span")
                && is_punct(toks, i + 2, '(')
            {
                fn_stack.iter().for_each(|&(f, _)| out.fns[f].opens_span = true);
            }
            if ident_at(toks, i)
                .is_some_and(|s| s == "tracer" || s == "hop" || s.starts_with("trace_"))
            {
                fn_stack.iter().for_each(|&(f, _)| out.fns[f].touches_tracer = true);
            }
            let Some((line, kind)) = site_at(toks, i) else { continue };
            // A `use` item imports a name: a container import is no
            // site at all, and nothing in an import belongs to a body.
            if self.in_use && matches!(kind, SiteKind::UnorderedContainer(_)) {
                continue;
            }
            self.seq += 1;
            let site = Site { line, seq: self.seq, kind };
            match fn_stack.last() {
                Some(&(f, _)) if !self.in_use => out.fns[f].sites.push(site),
                _ => out.sites.push(site),
            }
        }
    }
}

/// `#[cfg(..)]` at `i` whose predicate holds only under `cfg(test)`:
/// the line range from the attribute to the end of the item it
/// annotates — its `;`, its closing brace, or the closing bracket of
/// the enclosing group. Unterminated input runs to the end of the file.
fn cfg_test_item(toks: &[Token], i: usize) -> Option<(u32, u32)> {
    if !(is_punct(toks, i, '#')
        && is_punct(toks, i + 1, '[')
        && ident_at(toks, i + 2) == Some("cfg")
        && is_punct(toks, i + 3, '('))
    {
        return None;
    }
    if !cfg_implies_test(toks, i + 4).0 {
        return None;
    }
    let start = toks[i].line;
    let mut depth = 0i32;
    let mut in_attr = true;
    for t in &toks[i + 1..] {
        match &t.tok {
            Tok::Punct('(' | '[' | '{') => depth += 1,
            Tok::Punct(c @ (')' | ']' | '}')) => {
                depth -= 1;
                if in_attr && depth == 0 {
                    // The attribute closed; the annotated item follows.
                    in_attr = false;
                } else if depth < 0 || (depth == 0 && *c == '}') {
                    return Some((start, t.line));
                }
            }
            Tok::Punct(';') if depth == 0 => return Some((start, t.line)),
            _ => {}
        }
    }
    Some((start, toks.last().map_or(start, |t| t.line)))
}

/// Whether the cfg predicate starting at `i` holds only under `test`
/// (`test`, `all(..)` with such a member, `any(..)` of only such
/// members; never `not(..)`), and the index just past the predicate.
/// The lexer drops literals, so `feature = "x"` is `feature =`.
fn cfg_implies_test(toks: &[Token], i: usize) -> (bool, usize) {
    let Some(name) = ident_at(toks, i) else { return (false, i + 1) };
    if is_punct(toks, i + 1, '=') {
        return (false, i + 2);
    }
    if !is_punct(toks, i + 1, '(') {
        return (name == "test", i + 1);
    }
    let mut args = Vec::new();
    let mut j = i + 2;
    while j < toks.len() && !is_punct(toks, j, ')') {
        let (implies, next) = cfg_implies_test(toks, j);
        args.push(implies);
        j = next;
        if !is_punct(toks, j, ',') {
            break;
        }
        j += 1;
    }
    let implies = match name {
        "all" => args.contains(&true),
        "any" => !args.is_empty() && !args.contains(&false),
        _ => false,
    };
    (implies, j + 1)
}

/// The innermost impl/trait context on the scope stack.
fn enclosing_type(scopes: &[Scope]) -> (Option<String>, Option<String>) {
    for s in scopes.iter().rev() {
        match s {
            Scope::Impl { self_ty, trait_of } => return (Some(self_ty.clone()), trait_of.clone()),
            Scope::Trait { name } => return (Some(name.clone()), Some(name.clone())),
            _ => {}
        }
    }
    (None, None)
}

/// Parses `use a::b::{c, d as e};` into the alias map; returns the
/// index just past the `;`.
fn parse_use(toks: &[Token], start: usize, uses: &mut BTreeMap<String, Vec<String>>) -> usize {
    let mut i = start + 1;
    let mut prefix: Vec<String> = Vec::new();
    let mut group: Vec<(Vec<String>, Option<String>)> = Vec::new();
    let mut current: Vec<String> = Vec::new();
    let mut alias: Option<String> = None;
    let mut depth = 0i32;
    while i < toks.len() {
        match &toks[i].tok {
            Tok::Punct(';') => {
                i += 1;
                break;
            }
            Tok::Punct('{') => {
                depth += 1;
                if depth == 1 {
                    prefix = std::mem::take(&mut current);
                }
            }
            Tok::Punct('}') => {
                depth -= 1;
                if depth < 0 {
                    break; // malformed; bail before eating the file
                }
            }
            Tok::Punct(',') => {
                group.push((std::mem::take(&mut current), alias.take()));
            }
            Tok::Ident(s) if s == "as" => {
                alias = ident_at(toks, i + 1).map(str::to_string);
                i += 2;
                continue;
            }
            Tok::Ident(s) => current.push(s.clone()),
            _ => {}
        }
        i += 1;
    }
    group.push((current, alias));
    for (segs, alias) in group {
        if segs.is_empty() {
            continue;
        }
        let full: Vec<String> = prefix.iter().chain(segs.iter()).cloned().collect();
        let name = alias.unwrap_or_else(|| full[full.len() - 1].clone());
        if name != "*" {
            uses.insert(name, full);
        }
    }
    i
}

/// Parses `impl<G> Type {` / `impl<G> Trait<T> for Type {` headers.
/// Returns the scope plus the index of the opening `{` (the main loop
/// re-reads it), or `None` when the header is not parseable.
fn parse_impl_header(toks: &[Token], start: usize) -> Option<(Scope, usize)> {
    let mut i = start + 1;
    if is_punct(toks, i, '<') {
        i = skip_angles(toks, i)?;
    }
    // First type path: segments until `for` / `{` / `where`.
    let (first, mut i) = parse_type_path(toks, i)?;
    let mut trait_of = None;
    let mut self_ty = first;
    if ident_at(toks, i) == Some("for") {
        let (second, j) = parse_type_path(toks, i + 1)?;
        trait_of = Some(self_ty);
        self_ty = second;
        i = j;
    }
    // Skip a where clause: scan to the `{`.
    let limit = (i + 512).min(toks.len());
    while i < limit {
        match punct_at(toks, i) {
            Some('{') => return Some((Scope::Impl { self_ty, trait_of }, i)),
            Some(';') => return None,
            _ => {}
        }
        i += 1;
    }
    None
}

/// Parses one type path (`a::b::Type<G>`, `&mut Type`, `dyn Tr`),
/// returning its last plain segment and the index just past it.
fn parse_type_path(toks: &[Token], start: usize) -> Option<(String, usize)> {
    let mut i = start;
    // Leading sigils and modifiers.
    while i < toks.len() {
        match &toks[i].tok {
            Tok::Punct('&') | Tok::Punct('*') => i += 1,
            Tok::Ident(s) if matches!(s.as_str(), "mut" | "dyn" | "const") => i += 1,
            _ => break,
        }
    }
    let mut last = None;
    while i < toks.len() {
        match ident_at(toks, i) {
            Some(s) if !is_keyword(s) => {
                last = Some(s.to_string());
                i += 1;
                if is_punct(toks, i, '<') {
                    i = skip_angles(toks, i).unwrap_or(i);
                }
                if is_punct(toks, i, ':') && is_punct(toks, i + 1, ':') {
                    i += 2;
                    continue;
                }
                break;
            }
            _ => break,
        }
    }
    last.map(|l| (l, i))
}

/// Skips a fn signature starting just past the name; returns the index
/// of the body `{` (so the main loop opens the Fn scope) or of the `;`
/// of a bodyless signature (so the main loop drops the pending scope).
/// A `;` inside parens or brackets (`-> [u8; 4]`) ends nothing.
fn skip_signature(toks: &[Token], mut i: usize) -> usize {
    if is_punct(toks, i, '<') {
        i = skip_angles(toks, i).unwrap_or(i);
    }
    let mut depth = 0i32;
    while i < toks.len() {
        match punct_at(toks, i) {
            Some('(' | '[') => depth += 1,
            Some(')' | ']') => depth -= 1,
            Some('{' | ';') if depth <= 0 => return i,
            _ => {}
        }
        i += 1;
    }
    i
}

/// The site whose anchor token is `i`, with its line. Pure token
/// lookahead, independent of any item structure; at most one site
/// anchors at a token.
fn site_at(toks: &[Token], i: usize) -> Option<(u32, SiteKind)> {
    let line = toks[i].line;
    match &toks[i].tok {
        // `.name` — the site is reported on the name's line.
        Tok::Punct('.') => {
            let name = ident_at(toks, i + 1)?;
            let nline = toks[i + 1].line;
            let call = is_punct(toks, i + 2, '(');
            let kind = match name {
                "partial_cmp" => {
                    let after = skip_parens(toks, i + 2)?;
                    let unwrapped = is_punct(toks, after, '.')
                        && matches!(ident_at(toks, after + 1), Some("unwrap" | "expect"));
                    unwrapped.then_some(SiteKind::FloatPartialCmp)?
                }
                "unwrap" if call => SiteKind::PanicUnwrap("unwrap"),
                "expect" if call => SiteKind::PanicUnwrap("expect"),
                "try_iter" if call => SiteKind::ArrivalJoin("try_iter"),
                "try_recv" if call => SiteKind::ArrivalJoin("try_recv"),
                _ => return None,
            };
            Some((nline, kind))
        }
        // Indexing: `expr[` where expr just ended in an ident, `)` or `]`.
        Tok::Punct('[') => {
            let indexable = match toks.get(i.wrapping_sub(1)).map(|t| &t.tok) {
                Some(Tok::Ident(s)) => !is_keyword(s),
                Some(Tok::Punct(')')) | Some(Tok::Punct(']')) => true,
                _ => false,
            };
            indexable.then_some((line, SiteKind::Index))
        }
        Tok::Ident(id) => {
            let then = |seg: &str| followed_by_segment(toks, i, seg);
            let kind = match id.as_str() {
                "Instant" if then("now") => SiteKind::AmbientTime("Instant"),
                "SystemTime" if then("now") => SiteKind::AmbientTime("SystemTime"),
                "thread_rng" | "from_entropy" | "OsRng" | "getrandom" => {
                    SiteKind::AmbientEntropy(id.clone())
                }
                "HashMap" | "HashSet" => SiteKind::UnorderedContainer(id.clone()),
                "panic" | "unreachable" | "todo" | "unimplemented"
                    if is_punct(toks, i + 1, '!') =>
                {
                    SiteKind::PanicMacro(PANIC_MACROS.iter().find(|m| **m == id)?)
                }
                // `fs::read` only counts when `fs` starts the path, so
                // `std::fs::read` is not reported twice.
                "std" if then("fs") => SiteKind::FsIo("std::fs"),
                "fs" if then("read") && !is_punct(toks, i.wrapping_sub(1), ':') => {
                    SiteKind::FsIo("std::fs")
                }
                "File" if then("open") || then("create") => SiteKind::FsIo("File::open/create"),
                "OpenOptions" => SiteKind::FsIo("OpenOptions"),
                "VecDeque" if then("new") => SiteKind::UnboundedQueue("VecDeque::new"),
                "LinkedList" if then("new") => SiteKind::UnboundedQueue("LinkedList::new"),
                "mpsc" if then("channel") => SiteKind::UnboundedQueue("mpsc::channel"),
                // `for <pat> in <expr> {` whose header names a receiver;
                // `for<'a>` higher-ranked bounds are not loops.
                "for" if !is_punct(toks, i + 1, '<') => {
                    let rx = toks[i + 1..]
                        .iter()
                        .take_while(|t| !matches!(t.tok, Tok::Punct('{' | ';')))
                        .find_map(|t| match &t.tok {
                            Tok::Ident(s)
                                if s == "rx"
                                    || s == "receiver"
                                    || s.ends_with("_rx")
                                    || s.starts_with("rx_") =>
                            {
                                Some(s.clone())
                            }
                            _ => None,
                        })?;
                    SiteKind::ReceiverLoop(rx)
                }
                _ => return None,
            };
            Some((line, kind))
        }
        _ => None,
    }
}

const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// `:: seg` right after token `i`.
fn followed_by_segment(toks: &[Token], i: usize, seg: &str) -> bool {
    is_punct(toks, i + 1, ':') && is_punct(toks, i + 2, ':') && ident_at(toks, i + 3) == Some(seg)
}

/// Index just past the `)` that balances the first `(` at or after
/// `open`, or `None` when unbalanced.
fn skip_parens(toks: &[Token], open: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (j, t) in toks.iter().enumerate().skip(open) {
        match t.tok {
            Tok::Punct('(') => depth += 1,
            Tok::Punct(')') => {
                depth -= 1;
                if depth == 0 {
                    return Some(j + 1);
                }
            }
            _ => {}
        }
    }
    None
}

/// Examines the body token at `i`, recording calls and locks into the
/// innermost open fn; returns the next index to scan from. Sites are
/// the [`SiteWalk`]'s business.
fn scan_body_token(
    toks: &[Token],
    i: usize,
    fns: &mut [FnItem],
    fn_stack: &mut [FnFrame],
    depth: usize,
    seq: &mut u32,
) -> usize {
    let line = toks[i].line;
    let Some((fidx, open_locks)) = fn_stack.last_mut() else { return i + 1 };
    let fidx = *fidx;

    // `.name(` — method call or lock acquisition (`unwrap`/`expect` are
    // panic sites, not calls). The token *after* the name decides
    // (turbofish skipped).
    if is_punct(toks, i, '.') {
        if let Some(name) = ident_at(toks, i + 1) {
            let mut after = i + 2;
            if is_punct(toks, after, ':') && is_punct(toks, after + 1, ':') {
                if let Some(j) = skip_angles(toks, after + 2) {
                    after = j;
                }
            }
            if is_punct(toks, after, '(') {
                let nline = toks[i + 1].line;
                match name {
                    "unwrap" | "expect" => {}
                    "lock" => {
                        *seq += 1;
                        let lock_id = lock_receiver(toks, i, fns[fidx].self_ty.as_deref());
                        fns[fidx].locks.push(LockSpan {
                            line: nline,
                            start_seq: *seq,
                            end_seq: u32::MAX,
                            lock_id,
                        });
                        open_locks.push((fns[fidx].locks.len() - 1, depth));
                    }
                    _ => {
                        *seq += 1;
                        let target = if ident_at(toks, i.wrapping_sub(1)) == Some("self")
                            && !is_punct(toks, i.wrapping_sub(2), '.')
                        {
                            CallTarget::SelfMethod(name.to_string())
                        } else {
                            CallTarget::Method(name.to_string())
                        };
                        fns[fidx].calls.push(Call { line: nline, seq: *seq, target });
                    }
                }
                return i + 2;
            }
        }
        return i + 1;
    }

    let Some(id) = ident_at(toks, i) else { return i + 1 };
    // Macro invocation: `name!` produces no edges (macro bodies are
    // opaque).
    if is_punct(toks, i + 1, '!') {
        return i + 2;
    }
    // Path expression: `a::b::name(` / `Type::assoc(` / `name(`. Only
    // consider path *starts* (previous token is not `.`/`::`).
    let prev_sep =
        is_punct(toks, i.wrapping_sub(1), '.') || (is_punct(toks, i.wrapping_sub(1), ':') && i > 0);
    // `crate::`/`super::`/`self::` are keyword-led path starts.
    let keyword_path_start = matches!(id, "crate" | "super")
        || (id == "self" && is_punct(toks, i + 1, ':') && is_punct(toks, i + 2, ':'));
    if prev_sep || (is_keyword(id) && !keyword_path_start) {
        return i + 1;
    }
    let mut segs = vec![id.to_string()];
    let mut j = i + 1;
    while is_punct(toks, j, ':') && is_punct(toks, j + 1, ':') {
        if is_punct(toks, j + 2, '<') {
            // Turbofish ends the segment list.
            if let Some(k) = skip_angles(toks, j + 2) {
                j = k;
            }
            break;
        }
        match ident_at(toks, j + 2) {
            Some(s) if !is_keyword(s) => {
                segs.push(s.to_string());
                j += 3;
            }
            _ => break,
        }
    }
    if is_punct(toks, j, '(') && !is_punct(toks, j.wrapping_sub(1), '!') {
        *seq += 1;
        let target = if segs.len() == 2 && segs[0] == "Self" {
            CallTarget::SelfMethod(segs[1].clone())
        } else {
            CallTarget::Path(segs)
        };
        fns[fidx].calls.push(Call { line, seq: *seq, target });
        return j + 1;
    }
    j.max(i + 1)
}

/// Resolves the receiver of `<recv>.lock()` at the `.` before `lock`.
/// `self.field.lock()` (or `self.a.b.lock()`) inside `impl T` yields
/// `T::field` (the *last* field named); anything else is unresolvable.
fn lock_receiver(toks: &[Token], dot: usize, self_ty: Option<&str>) -> Option<String> {
    let field = ident_at(toks, dot.wrapping_sub(1)).filter(|s| !is_keyword(s))?;
    // Walk back through the field chain to the base.
    let mut i = dot - 1;
    while i >= 2 && is_punct(toks, i - 1, '.') && ident_at(toks, i - 2).is_some() {
        i -= 2;
    }
    if ident_at(toks, i) == Some("self") {
        self_ty.map(|t| format!("{t}::{field}"))
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse(path: &str, src: &str) -> ParsedFile {
        parse_file(path, &lex(src))
    }

    fn one(src: &str) -> FnItem {
        let p = parse("crates/serve/src/x.rs", src);
        assert_eq!(p.fns.len(), 1, "want one fn: {:?}", p.fns);
        p.fns.into_iter().next().unwrap()
    }

    #[test]
    fn impl_context_and_self_calls() {
        let f = one("impl FleetService { pub fn tick(&mut self) -> bool { self.step(1); true } }");
        assert_eq!(f.self_ty.as_deref(), Some("FleetService"));
        assert_eq!(f.name, "tick");
        assert_eq!(
            f.calls,
            vec![Call { line: 1, seq: 1, target: CallTarget::SelfMethod("step".into()) }]
        );
    }

    #[test]
    fn trait_impls_record_the_trait() {
        let src = "impl NetFrontier for Gateway { fn poll(&mut self, now: usize) -> Vec<u8> { decode(now) } }";
        let f = one(src);
        assert_eq!(f.self_ty.as_deref(), Some("Gateway"));
        assert_eq!(f.trait_of.as_deref(), Some("NetFrontier"));
        assert_eq!(f.calls[0].target, CallTarget::Path(vec!["decode".into()]));
    }

    #[test]
    fn generic_impl_headers_parse() {
        let src = "impl<J: Send, R> Pool<J, R> { fn run_epoch(&mut self) { helper::go::<J>(); } }";
        let f = one(src);
        assert_eq!(f.self_ty.as_deref(), Some("Pool"));
        assert_eq!(f.calls[0].target, CallTarget::Path(vec!["helper".into(), "go".into()]));
    }

    #[test]
    fn method_and_assoc_calls() {
        let f = one("fn f(x: &T) { x.refresh(); Store::open(1); Self::go(); }");
        let targets: Vec<&CallTarget> = f.calls.iter().map(|c| &c.target).collect();
        assert_eq!(
            targets,
            vec![
                &CallTarget::Method("refresh".into()),
                &CallTarget::Path(vec!["Store".into(), "open".into()]),
                &CallTarget::SelfMethod("go".into()),
            ]
        );
    }

    #[test]
    fn self_field_method_is_not_a_self_method() {
        let f = one("impl S { fn f(&self) { self.tracer.hop(1); } }");
        assert_eq!(f.calls[0].target, CallTarget::Method("hop".into()));
    }

    #[test]
    fn panic_sites_are_recorded() {
        let f = one("fn f(v: Option<u8>, s: &[u8], i: usize) -> u8 { v.unwrap(); v.expect(\"x\"); if i > 9 { panic!(\"no\") } s[i] }");
        let kinds: Vec<&SiteKind> = f.sites.iter().map(|s| &s.kind).collect();
        assert_eq!(
            kinds,
            vec![
                &SiteKind::PanicUnwrap("unwrap"),
                &SiteKind::PanicUnwrap("expect"),
                &SiteKind::PanicMacro("panic"),
                &SiteKind::Index,
            ]
        );
    }

    #[test]
    fn attribute_brackets_and_array_literals_are_not_indexing() {
        let src = "fn f() { let a = [1, 2]; let v: Vec<[u8; 2]> = vec![a]; }\n#[derive(Debug)]\nstruct S;";
        let p = parse("crates/serve/src/x.rs", src);
        assert!(p.fns[0].sites.is_empty(), "{:?}", p.fns[0].sites);
    }

    #[test]
    fn ambient_time_and_entropy_sites() {
        let f = one("fn f() { let t = Instant::now(); let r = thread_rng(); let m: HashMap<u8, u8> = make(); }");
        let kinds: Vec<&SiteKind> = f.sites.iter().map(|s| &s.kind).collect();
        assert_eq!(
            kinds,
            vec![
                &SiteKind::AmbientTime("Instant"),
                &SiteKind::AmbientEntropy("thread_rng".into()),
                &SiteKind::UnorderedContainer("HashMap".into()),
            ]
        );
        // The container in a `use` item is not a site.
        let p = parse("crates/serve/src/y.rs", "use std::collections::HashMap;\nfn g() {}");
        assert!(p.fns[0].sites.is_empty());
    }

    #[test]
    fn sites_outside_fn_bodies_belong_to_the_file() {
        // A struct field, an import, and a body behind a header the
        // parser gives up on: no fn item, every site still recorded.
        let src =
            "struct S { m: HashMap<u8, u8> }\nuse rand::rngs::OsRng;\nfn (v: X) { v.unwrap(); }";
        let p = parse("crates/serve/src/x.rs", src);
        assert!(p.fns.is_empty(), "{:?}", p.fns);
        let kinds: Vec<&SiteKind> = p.sites.iter().map(|s| &s.kind).collect();
        assert_eq!(
            kinds,
            vec![
                &SiteKind::UnorderedContainer("HashMap".into()),
                &SiteKind::AmbientEntropy("OsRng".into()),
                &SiteKind::PanicUnwrap("unwrap"),
            ]
        );
    }

    #[test]
    fn stage_facts_cover_nested_fns() {
        let src = "fn outer(o: &Obs) { fn inner(o: &Obs) { o.span(1); } self.tracer.hop(); }";
        let p = parse("crates/serve/src/service.rs", src);
        let facts: Vec<(&str, bool, bool)> =
            p.fns.iter().map(|f| (f.name.as_str(), f.opens_span, f.touches_tracer)).collect();
        assert_eq!(facts, vec![("inner", true, false), ("outer", true, true)]);
    }

    #[test]
    fn lock_spans_follow_block_scope() {
        let src =
            "impl Gate { fn f(&self) { { let g = self.inner.lock(); g.touch(); } self.after(); } }";
        let f = one(src);
        assert_eq!(f.locks.len(), 1);
        let l = &f.locks[0];
        assert_eq!(l.lock_id.as_deref(), Some("Gate::inner"));
        // `self.after()` (seq past the block close) is outside the span.
        let after = f.calls.iter().find(|c| c.target == CallTarget::SelfMethod("after".into()));
        assert!(after.unwrap().seq > l.end_seq, "{l:?} vs {:?}", f.calls);
        // `g.touch()` is inside.
        let touch = f.calls.iter().find(|c| c.target == CallTarget::Method("touch".into()));
        assert!(touch.unwrap().seq <= l.end_seq);
    }

    #[test]
    fn local_lock_receivers_are_unresolvable() {
        let f = one("fn f(m: &Mutex<u8>) { let g = m.lock(); drop(g); }");
        assert_eq!(f.locks.len(), 1);
        assert_eq!(f.locks[0].lock_id, None);
    }

    #[test]
    fn use_aliases_are_collected() {
        let src = "use alba_ml::{Fitted as Model, predict};\nuse std::fmt::Write as _;\nfn f() {}";
        let p = parse("crates/serve/src/x.rs", src);
        assert_eq!(
            p.uses.get("Model").unwrap(),
            &vec!["alba_ml".to_string(), "Fitted".to_string()]
        );
        assert_eq!(
            p.uses.get("predict").unwrap(),
            &vec!["alba_ml".to_string(), "predict".to_string()]
        );
    }

    #[test]
    fn test_region_fns_are_marked() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests { fn t() { x.unwrap(); } }";
        let p = parse("crates/serve/src/x.rs", src);
        assert!(!p.fns[0].is_test);
        assert!(p.fns[1].is_test);
        let p2 = parse("crates/serve/tests/t.rs", "fn t() {}");
        assert!(p2.fns[0].is_test);
    }

    #[test]
    fn bodyless_trait_methods_produce_items_without_calls() {
        let src = "trait Sink { fn flush(&self); fn log(&self) { self.flush(); } }";
        let p = parse("crates/obs/src/x.rs", src);
        assert_eq!(p.fns.len(), 2);
        let log = p.fns.iter().find(|f| f.name == "log").unwrap();
        assert_eq!(log.self_ty.as_deref(), Some("Sink"));
        assert_eq!(log.calls[0].target, CallTarget::SelfMethod("flush".into()));
        let flush = p.fns.iter().find(|f| f.name == "flush").unwrap();
        assert!(flush.calls.is_empty());
    }

    #[test]
    fn a_bodyless_fn_does_not_claim_the_next_brace() {
        // `fn a(&self);` must not leave its scope pending for the
        // struct's brace: the field site is file-level, not `a`'s.
        let src =
            "trait T { fn a(&self); }\nstruct S { m: HashMap<u8, u8> }\nfn b() -> [u8; 2] { go() }";
        let p = parse("crates/serve/src/x.rs", src);
        let a = p.fns.iter().find(|f| f.name == "a").unwrap();
        assert!(a.sites.is_empty() && a.calls.is_empty(), "{a:?}");
        assert_eq!(p.sites.len(), 1, "{:?}", p.sites);
        // A `;` inside the return type does not end the signature.
        let b = p.fns.iter().find(|f| f.name == "b").unwrap();
        assert_eq!(b.calls[0].target, CallTarget::Path(vec!["go".into()]));
    }

    #[test]
    fn only_test_only_cfgs_mark_test_items() {
        let src = "#[cfg(not(test))]\nfn live() {}\n#[cfg(any(test, feature = \"x\"))]\nfn either() {}\n#[cfg(all(test, feature = \"x\"))]\nfn t() {}\n#[cfg(any(test, all(test, unix)))]\nfn t2() {}";
        let p = parse("crates/serve/src/x.rs", src);
        let is_test = |n: &str| p.fns.iter().find(|f| f.name == n).unwrap().is_test;
        assert!(!is_test("live"));
        assert!(!is_test("either"));
        assert!(is_test("t"));
        assert!(is_test("t2"));
        assert_eq!(p.test_items, vec![(5, 6), (7, 8)]);
    }

    #[test]
    fn macros_do_not_become_calls() {
        let f = one("fn f() { println!(\"{}\", go()); vec![1] }");
        // `go()` inside the macro body still parses as a call (macro
        // args are expression-shaped in this codebase) but `println`
        // itself must not.
        assert!(f.calls.iter().all(|c| c.target != CallTarget::Path(vec!["println".into()])));
    }

    #[test]
    fn parser_is_total_on_hostile_input() {
        for src in [
            "impl",
            "impl {",
            "impl<T for {",
            "fn",
            "fn (",
            "fn f(",
            "trait",
            "use ;",
            "use {{{",
            "fn f() { self. }",
            "fn f() { a::::b(); }",
            "}}}}",
            "fn f() { { { .lock() } }",
            "impl X { fn a() { \"unterminated",
        ] {
            let _ = parse_file("crates/serve/src/x.rs", &lex(src));
        }
    }
}
