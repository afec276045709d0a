//! Item-level parser on top of the lexer's code shadow.
//!
//! This is deliberately **not** a Rust grammar. It recognizes just
//! enough structure — `mod`/`impl`/`trait`/`fn` nesting, `use` paths,
//! call expressions, and a handful of expression shapes — to build the
//! workspace call graph that the graph rules (see [`crate::graph`])
//! analyze. Everything runs over [`crate::lexer::ScannedFile`] code
//! shadows, so comments and string contents can never confuse it.
//!
//! Per function the parser records two feature streams:
//!
//! * **calls** — method (`.name(`), path (`Type::name(` / `mod::name(`),
//!   bare (`name(`) and synthetic closure calls;
//! * **allocation sites** — growth methods (`push`, `insert`,
//!   `extend`, `collect`, `to_string`, `clone`, …), allocating
//!   constructors (`Box::new`, `String::from`, `Vec::with_capacity`,
//!   …) and macros (`format!`, `vec!`).
//!
//! Closures passed to `Box::new(move |..| ..)` become synthetic
//! `<parent>::{closure}` functions — that is the bench-kernel factory
//! shape, where the boxed closure *is* the hot body and the enclosing
//! factory is setup code. All other closures attribute inline to the
//! enclosing function.
//!
//! Pragmas: `// tdc-lint: hot` on (or directly above) a `fn` or boxed
//! closure marks it as an extra hot-path root; `// tdc-lint: cold`
//! exempts it and everything only reachable through it.

use crate::lexer::ScannedFile;
use std::collections::{BTreeMap, BTreeSet};

/// One parsed source file: its functions plus the file-level context
/// (identifier set, imports, traits) the resolver needs.
#[derive(Debug, Default)]
pub struct ParsedFile {
    pub fns: Vec<FnInfo>,
    /// Every identifier appearing in non-test code. Method calls in
    /// this file only resolve to types named here, which keeps the
    /// name-based resolution from wiring unrelated crates together.
    pub idents: BTreeSet<String>,
    /// `use` aliases: last path segment (or `as` alias) → full path.
    pub imports: BTreeMap<String, Vec<String>>,
    /// Traits declared in this file with their method names.
    pub traits: Vec<TraitInfo>,
    /// Identifiers appearing as `factory: <ident>` struct fields — the
    /// bench-registry kernel constructors (hot-path roots).
    pub kernel_factories: Vec<String>,
}

/// A trait declaration: name plus declared method names.
#[derive(Debug)]
pub struct TraitInfo {
    pub name: String,
    pub methods: Vec<String>,
}

/// One function (or synthetic boxed closure) and its feature streams.
#[derive(Debug)]
pub struct FnInfo {
    /// Bare name (`translate`) or `{closure}` / `{closure#N}`.
    pub name: String,
    /// Qualified name: `TaglessCache::translate`, `run_tasks`,
    /// `k_zipf_sample::{closure}`.
    pub qual: String,
    /// `impl` self type (last path segment), if any.
    pub self_ty: Option<String>,
    /// Trait name when declared in `impl Trait for Type` or with a
    /// default body in `trait Trait { .. }`.
    pub trait_of: Option<String>,
    /// 1-based declaration line.
    pub line: usize,
    pub is_test: bool,
    /// `// tdc-lint: hot` — extra hot-path root.
    pub hot: bool,
    /// `// tdc-lint: cold` — cut from hot-path traversal.
    pub cold: bool,
    pub calls: Vec<CallSite>,
    pub allocs: Vec<Site>,
}

/// One call expression.
#[derive(Debug)]
pub struct CallSite {
    pub name: String,
    pub kind: CallKind,
    /// Penultimate path segment for [`CallKind::Path`] calls
    /// (`Json::parse` → `Json`); parent qual for closure calls.
    pub qualifier: Option<String>,
    /// 1-based line.
    pub line: usize,
}

/// How a call site was written.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallKind {
    /// `recv.name(..)`
    Method,
    /// `Path::name(..)`
    Path,
    /// `name(..)`
    Bare,
    /// Synthetic edge from a factory fn to its boxed closure.
    Closure,
}

/// An allocation site: what was matched, and where.
#[derive(Debug)]
pub struct Site {
    pub what: &'static str,
    pub line: usize,
}

/// Collection-growth / owned-copy methods treated as allocations.
const ALLOC_METHODS: [&str; 16] = [
    "append",
    "clone",
    "collect",
    "extend",
    "insert",
    "join",
    "or_default",
    "or_insert",
    "or_insert_with",
    "push",
    "push_str",
    "repeat",
    "reserve",
    "to_owned",
    "to_string",
    "to_vec",
];

/// Allocating `Type::assoc_fn` constructors.
const ALLOC_PATHS: [(&str, &str); 6] = [
    ("Arc", "new"),
    ("Box", "new"),
    ("Rc", "new"),
    ("String", "from"),
    ("String", "with_capacity"),
    ("Vec", "with_capacity"),
];

/// Allocating macros.
const ALLOC_MACROS: [&str; 2] = ["format", "vec"];

/// Identifiers that look like calls (`if (..)`, `Fn(..)`) but are not.
const NON_CALL_IDENTS: [&str; 30] = [
    "Fn",
    "FnMut",
    "FnOnce",
    "Self",
    "as",
    "async",
    "await",
    "break",
    "const",
    "continue",
    "dyn",
    "else",
    "enum",
    "extern",
    "fn",
    "for",
    "if",
    "impl",
    "in",
    "let",
    "loop",
    "match",
    "move",
    "mut",
    "pub",
    "ref",
    "return",
    "unsafe",
    "where",
    "while",
];

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Num,
    Punct(char),
    /// `::`
    PathSep,
}

#[derive(Debug, Clone)]
struct Token {
    tok: Tok,
    /// 0-based line index.
    line: usize,
}

/// Tokenizes the code shadow of a scanned file.
fn tokenize(file: &ScannedFile) -> Vec<Token> {
    let mut out = Vec::new();
    for (line_no, line) in file.lines.iter().enumerate() {
        let bytes = line.code.as_bytes();
        let mut i = 0;
        while i < bytes.len() {
            let b = bytes[i];
            if b.is_ascii_alphabetic() || b == b'_' {
                let start = i;
                while i < bytes.len()
                    && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_')
                {
                    i += 1;
                }
                out.push(Token {
                    tok: Tok::Ident(line.code[start..i].to_string()),
                    line: line_no,
                });
            } else if b.is_ascii_digit() {
                while i < bytes.len()
                    && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_')
                {
                    i += 1;
                }
                out.push(Token { tok: Tok::Num, line: line_no });
            } else if b == b':' && bytes.get(i + 1) == Some(&b':') {
                out.push(Token { tok: Tok::PathSep, line: line_no });
                i += 2;
            } else if b.is_ascii_whitespace() {
                i += 1;
            } else if b.is_ascii() {
                out.push(Token { tok: Tok::Punct(b as char), line: line_no });
                i += 1;
            } else {
                i += 1;
            }
        }
    }
    out
}

/// What the next `{` opens.
enum Pending {
    Mod,
    Trait { index: usize },
    Impl { ty: String, tr: Option<String> },
    Fn { index: usize },
    Other,
}

/// One open brace scope.
enum Scope {
    Block,
    Mod,
    Trait { index: usize },
    Impl { ty: String, tr: Option<String> },
    Fn { index: usize },
}

struct Parser<'a> {
    file: &'a ScannedFile,
    toks: Vec<Token>,
    out: ParsedFile,
    stack: Vec<Scope>,
    pending: Option<Pending>,
    paren_depth: usize,
    square_depth: usize,
    /// Expression-bodied boxed closures: (fn index, paren depth inside
    /// the `Box::new(` call). Popped when the depth unwinds.
    expr_closures: Vec<(usize, usize)>,
}

/// Parses one scanned file into its call-graph view.
pub fn parse(file: &ScannedFile) -> ParsedFile {
    let toks = tokenize(file);
    let mut p = Parser {
        file,
        toks,
        out: ParsedFile::default(),
        stack: Vec::new(),
        pending: None,
        paren_depth: 0,
        square_depth: 0,
        expr_closures: Vec::new(),
    };
    p.collect_file_context();
    p.walk();
    p.out
}

impl Parser<'_> {
    fn collect_file_context(&mut self) {
        for t in &self.toks {
            if self.file.is_test_code(t.line) {
                continue;
            }
            if let Tok::Ident(name) = &t.tok {
                self.out.idents.insert(name.clone());
            }
        }
        // `factory: <ident>` fields mark bench-registry kernels.
        for w in self.toks.windows(3) {
            if let [a, b, c] = w {
                if a.tok == Tok::Ident("factory".to_string())
                    && b.tok == Tok::Punct(':')
                    && !self.file.is_test_code(a.line)
                {
                    if let Tok::Ident(k) = &c.tok {
                        self.out.kernel_factories.push(k.clone());
                    }
                }
            }
        }
    }

    /// Innermost function context, if any: an active expression closure
    /// wins over the scope stack.
    fn cur_fn(&self) -> Option<usize> {
        if let Some(&(index, _)) = self.expr_closures.last() {
            return Some(index);
        }
        self.stack.iter().rev().find_map(|s| match s {
            Scope::Fn { index } => Some(*index),
            _ => None,
        })
    }

    fn cur_impl(&self) -> Option<(String, Option<String>)> {
        self.stack.iter().rev().find_map(|s| match s {
            Scope::Impl { ty, tr } => Some((ty.clone(), tr.clone())),
            _ => None,
        })
    }

    fn cur_trait(&self) -> Option<usize> {
        self.stack.iter().rev().find_map(|s| match s {
            Scope::Trait { index } => Some(*index),
            _ => None,
        })
    }

    fn ident_at(&self, i: usize) -> Option<&str> {
        match self.toks.get(i).map(|t| &t.tok) {
            Some(Tok::Ident(s)) => Some(s),
            _ => None,
        }
    }

    fn punct_at(&self, i: usize) -> Option<char> {
        match self.toks.get(i).map(|t| &t.tok) {
            Some(Tok::Punct(c)) => Some(*c),
            _ => None,
        }
    }

    /// Whether the comment on `line0` or the line above carries a
    /// `tdc-lint: <word>` marker.
    fn marker(&self, line0: usize, word: &str) -> bool {
        let has = |idx: usize| {
            self.file.lines.get(idx).is_some_and(|l| {
                l.comment.find("tdc-lint:").is_some_and(|at| {
                    l.comment[at + "tdc-lint:".len()..]
                        .split(|c: char| c.is_whitespace() || c == ',')
                        .any(|w| w == word)
                })
            })
        };
        has(line0) || (line0 > 0 && has(line0 - 1))
    }

    fn new_fn(&mut self, name: String, line0: usize) -> usize {
        let (self_ty, trait_of) = match self.cur_impl() {
            Some((ty, tr)) => (Some(ty), tr),
            None => match self.cur_trait() {
                Some(t) => (None, Some(self.out.traits[t].name.clone())),
                None => (None, None),
            },
        };
        let qual = match (&self_ty, self.cur_fn()) {
            // Nested fns and closures hang off the enclosing fn.
            (_, Some(parent)) => format!("{}::{name}", self.out.fns[parent].qual),
            (Some(ty), None) => format!("{ty}::{name}"),
            (None, None) => match &trait_of {
                Some(tr) => format!("{tr}::{name}"),
                None => name.clone(),
            },
        };
        self.out.fns.push(FnInfo {
            name,
            qual,
            self_ty,
            trait_of,
            line: line0 + 1,
            is_test: self.file.is_test_code(line0),
            hot: self.marker(line0, "hot"),
            cold: self.marker(line0, "cold"),
            calls: Vec::new(),
            allocs: Vec::new(),
        });
        self.out.fns.len() - 1
    }

    fn walk(&mut self) {
        let mut i = 0;
        while i < self.toks.len() {
            match self.toks[i].tok.clone() {
                Tok::Ident(word) => {
                    let at_item_level = self.cur_fn().is_none();
                    match word.as_str() {
                        "fn" if self.ident_at(i + 1).is_some() => {
                            i = self.start_fn(i);
                            continue;
                        }
                        "impl" if at_item_level => {
                            i = self.start_impl(i);
                            continue;
                        }
                        "trait" if at_item_level => {
                            if let Some(name) = self.ident_at(i + 1) {
                                self.out.traits.push(TraitInfo {
                                    name: name.to_string(),
                                    methods: Vec::new(),
                                });
                                self.pending = Some(Pending::Trait {
                                    index: self.out.traits.len() - 1,
                                });
                            }
                        }
                        "mod" if at_item_level => {
                            if self.ident_at(i + 1).is_some()
                                && self.punct_at(i + 2) != Some(';')
                            {
                                self.pending = Some(Pending::Mod);
                            }
                        }
                        "use" if at_item_level => {
                            i = self.parse_use(i);
                            continue;
                        }
                        "struct" | "enum" | "union" if at_item_level => {
                            self.pending = Some(Pending::Other);
                        }
                        _ => {
                            if self.pending.is_none() {
                                self.expression_features(i, &word);
                            }
                        }
                    }
                }
                Tok::Punct('(') => {
                    self.paren_depth += 1;
                }
                Tok::Punct(')') => {
                    self.paren_depth = self.paren_depth.saturating_sub(1);
                    while self
                        .expr_closures
                        .last()
                        .is_some_and(|&(_, d)| d > self.paren_depth)
                    {
                        self.expr_closures.pop();
                    }
                }
                Tok::Punct('{') => {
                    let scope = match self.pending.take() {
                        Some(Pending::Mod) => Scope::Mod,
                        Some(Pending::Trait { index }) => Scope::Trait { index },
                        Some(Pending::Impl { ty, tr }) => Scope::Impl { ty, tr },
                        Some(Pending::Fn { index }) => Scope::Fn { index },
                        Some(Pending::Other) | None => Scope::Block,
                    };
                    self.stack.push(scope);
                }
                Tok::Punct('}') => {
                    self.stack.pop();
                }
                Tok::Punct(';') => {
                    // `;` inside a signature's parens or an array type
                    // (`[u64; 4]`) does not end the item.
                    if self.paren_depth > 0 || self.square_depth > 0 {
                        i += 1;
                        continue;
                    }
                    // A trait method signature without a body.
                    if let Some(Pending::Fn { index }) = &self.pending {
                        let index = *index;
                        self.pending = None;
                        // Drop the bodiless decl again unless it is the
                        // most recent fn (it always is).
                        if index + 1 == self.out.fns.len()
                            && self.out.fns[index].trait_of.is_some()
                            && self.out.fns[index].self_ty.is_none()
                        {
                            self.out.fns.pop();
                        }
                    } else {
                        self.pending = None;
                    }
                }
                Tok::Punct('[') => {
                    self.square_depth += 1;
                }
                Tok::Punct(']') => {
                    self.square_depth = self.square_depth.saturating_sub(1);
                }
                _ => {}
            }
            i += 1;
        }
    }

    /// Handles `fn name` at `i` (pointing at `fn`). Returns the next
    /// token index to process (just past the name).
    fn start_fn(&mut self, i: usize) -> usize {
        let name = self.ident_at(i + 1).unwrap_or_default().to_string();
        let line0 = self.toks[i].line;
        if let Some(t) = self.cur_trait() {
            self.out.traits[t].methods.push(name.clone());
        }
        let index = self.new_fn(name, line0);
        self.pending = Some(Pending::Fn { index });
        i + 2
    }

    /// Handles `impl ..` at `i`. Returns the index of the `{` / `;`
    /// that ends the header (the main loop consumes it).
    fn start_impl(&mut self, i: usize) -> usize {
        let mut j = i + 1;
        // Skip the generic parameter list.
        if self.punct_at(j) == Some('<') {
            let mut depth = 0usize;
            while j < self.toks.len() {
                match self.punct_at(j) {
                    Some('<') => depth += 1,
                    Some('>') => {
                        depth -= 1;
                        if depth == 0 {
                            j += 1;
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
        }
        let read_path = |j: &mut usize| -> Option<String> {
            let mut last = None;
            loop {
                match self.toks.get(*j).map(|t| t.tok.clone()) {
                    Some(Tok::Ident(w)) => {
                        if w == "for" || w == "where" {
                            break;
                        }
                        last = Some(w);
                        *j += 1;
                    }
                    Some(Tok::PathSep) => *j += 1,
                    Some(Tok::Punct('<')) => {
                        let mut depth = 0usize;
                        while *j < self.toks.len() {
                            match self.toks[*j].tok {
                                Tok::Punct('<') => depth += 1,
                                Tok::Punct('>') => {
                                    depth -= 1;
                                    if depth == 0 {
                                        *j += 1;
                                        break;
                                    }
                                }
                                _ => {}
                            }
                            *j += 1;
                        }
                    }
                    Some(Tok::Punct('&')) | Some(Tok::Punct('\'')) => *j += 1,
                    _ => break,
                }
            }
            last
        };
        let first = read_path(&mut j);
        let (ty, tr) = if self.ident_at(j) == Some("for") {
            j += 1;
            (read_path(&mut j), first)
        } else {
            (first, None)
        };
        // Skip any `where` clause up to the opening brace.
        while j < self.toks.len()
            && self.punct_at(j) != Some('{')
            && self.punct_at(j) != Some(';')
        {
            j += 1;
        }
        if let Some(ty) = ty {
            self.pending = Some(Pending::Impl { ty, tr });
        }
        j
    }

    /// Parses `use path;` starting at `i` (pointing at `use`). Returns
    /// the index just past the terminating `;`.
    fn parse_use(&mut self, i: usize) -> usize {
        let mut j = i + 1;
        let end = {
            let mut k = j;
            while k < self.toks.len() && self.punct_at(k) != Some(';') {
                k += 1;
            }
            k
        };
        let mut prefix: Vec<String> = Vec::new();
        self.use_tree(&mut j, end, &mut prefix);
        end + 1
    }

    fn use_tree(&mut self, j: &mut usize, end: usize, prefix: &mut Vec<String>) {
        let depth_at_entry = prefix.len();
        let mut last: Option<String> = None;
        while *j < end {
            match self.toks[*j].tok.clone() {
                Tok::Ident(w) if w == "as" => {
                    *j += 1;
                    if let Some(alias) = self.ident_at(*j).map(str::to_string) {
                        if let Some(seg) = last.take() {
                            prefix.push(seg);
                            self.out.imports.insert(alias, prefix.clone());
                            prefix.pop();
                        }
                        *j += 1;
                    }
                }
                Tok::Ident(w) => {
                    if let Some(seg) = last.replace(w) {
                        // Two idents without `::`: tolerate (pub use).
                        let _ = seg;
                    }
                    *j += 1;
                }
                Tok::PathSep => {
                    if let Some(seg) = last.take() {
                        prefix.push(seg);
                    }
                    *j += 1;
                }
                Tok::Punct('{') => {
                    *j += 1;
                    loop {
                        self.use_tree(j, end, prefix);
                        match self.toks.get(*j).map(|t| t.tok.clone()) {
                            Some(Tok::Punct(',')) => *j += 1,
                            _ => break,
                        }
                    }
                    if self.punct_at(*j) == Some('}') {
                        *j += 1;
                    }
                }
                Tok::Punct('}') | Tok::Punct(',') => break,
                _ => {
                    *j += 1;
                }
            }
        }
        if let Some(seg) = last {
            if seg == "self" {
                if let Some(tail) = prefix.last().cloned() {
                    self.out.imports.insert(tail, prefix.clone());
                }
            } else if seg != "_" {
                prefix.push(seg.clone());
                self.out.imports.insert(seg, prefix.clone());
                prefix.pop();
            }
        }
        prefix.truncate(depth_at_entry);
    }

    /// Call and allocation extraction for the identifier at `i` inside
    /// a fn body.
    fn expression_features(&mut self, i: usize, word: &str) {
        let Some(fn_index) = self.cur_fn() else { return };
        let line = self.toks[i].line + 1;

        // Macro invocation: `name!(..)` / `name![..]` / `name!{..}`.
        if self.punct_at(i + 1) == Some('!')
            && matches!(self.punct_at(i + 2), Some('(') | Some('[') | Some('{'))
        {
            if ALLOC_MACROS.contains(&word) {
                let what = if word == "format" { "format!" } else { "vec!" };
                self.out.fns[fn_index].allocs.push(Site { what, line });
            }
            return;
        }

        // Call expression: `name(` — possibly with a turbofish between
        // the name and the parens (`collect::<Vec<_>>(`).
        let mut open = i + 1;
        if matches!(self.toks.get(open).map(|t| &t.tok), Some(Tok::PathSep))
            && self.punct_at(open + 1) == Some('<')
        {
            let mut depth = 0usize;
            let mut k = open + 1;
            while k < self.toks.len() {
                match self.toks[k].tok {
                    Tok::Punct('<') => depth += 1,
                    Tok::Punct('>') => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                k += 1;
            }
            open = k + 1;
        }
        if self.punct_at(open) != Some('(') {
            return;
        }
        if NON_CALL_IDENTS.contains(&word) {
            return;
        }

        let prev = if i == 0 { None } else { Some(&self.toks[i - 1].tok) };
        let (kind, qualifier) = match prev {
            Some(Tok::Punct('.')) => (CallKind::Method, None),
            Some(Tok::PathSep) => {
                let q = if i >= 2 { self.ident_at(i - 2).map(str::to_string) } else { None };
                (CallKind::Path, q)
            }
            _ => (CallKind::Bare, None),
        };

        // Allocation classification.
        let alloc: Option<&'static str> = match kind {
            CallKind::Method => ALLOC_METHODS
                .iter()
                .find(|m| **m == word)
                .copied(),
            CallKind::Path => ALLOC_PATHS
                .iter()
                .find(|(t, n)| Some(*t) == qualifier.as_deref() && *n == word)
                .map(|(t, _)| *t),
            _ => None,
        };
        if let Some(tag) = alloc {
            let what: &'static str = match (kind, tag) {
                (CallKind::Path, "Arc") => "Arc::new",
                (CallKind::Path, "Box") => "Box::new",
                (CallKind::Path, "Rc") => "Rc::new",
                (CallKind::Path, "String") => {
                    if word == "from" { "String::from" } else { "String::with_capacity" }
                }
                (CallKind::Path, "Vec") => "Vec::with_capacity",
                _ => tag,
            };
            self.out.fns[fn_index].allocs.push(Site { what, line });
        }

        // Record the call itself.
        let boxed = kind == CallKind::Path && word == "new" && qualifier.as_deref() == Some("Box");
        self.out.fns[fn_index].calls.push(CallSite {
            name: word.to_string(),
            kind,
            qualifier,
            line,
        });

        // Boxed closure: `Box::new(move |..| ..)` becomes a synthetic
        // `{closure}` fn — the bench-kernel factory shape.
        if boxed {
            self.boxed_closure(open, fn_index);
        }
    }

    /// Handles the closure argument of `Box::new(` whose `(` sits at
    /// token index `open`.
    fn boxed_closure(&mut self, open: usize, parent: usize) {
        let mut k = open + 1;
        if self.ident_at(k) == Some("move") {
            k += 1;
        }
        if self.punct_at(k) != Some('|') {
            return;
        }
        let line0 = self.toks[k].line;
        // Skip the parameter list to the closing `|`.
        let mut b = k + 1;
        while b < self.toks.len() && self.punct_at(b) != Some('|') {
            b += 1;
        }
        b += 1;

        let n = self.out.fns.iter().filter(|f| {
            f.qual.starts_with(&self.out.fns[parent].qual) && f.name.starts_with("{closure")
        }).count();
        let name =
            if n == 0 { "{closure}".to_string() } else { format!("{{closure#{}}}", n + 1) };
        let parent_qual = self.out.fns[parent].qual.clone();
        let index = self.new_fn(name, line0);
        // new_fn derives quals from impl context; closures hang off the
        // parent fn instead.
        self.out.fns[index].qual = format!("{parent_qual}::{}", self.out.fns[index].name);
        let qual = self.out.fns[index].qual.clone();
        self.out.fns[parent].calls.push(CallSite {
            name: qual.clone(),
            kind: CallKind::Closure,
            qualifier: Some(parent_qual),
            line: line0 + 1,
        });

        if self.punct_at(b) == Some('{') {
            self.pending = Some(Pending::Fn { index });
        } else {
            // Expression body: attribute features until the call's
            // parens unwind.
            self.expr_closures.push((index, self.paren_depth + 1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::scan;

    fn parse_src(src: &str) -> ParsedFile {
        parse(&scan(src))
    }

    fn fn_named<'a>(p: &'a ParsedFile, qual: &str) -> &'a FnInfo {
        p.fns
            .iter()
            .find(|f| f.qual == qual)
            .unwrap_or_else(|| panic!("no fn {qual} in {:?}", p.fns.iter().map(|f| &f.qual).collect::<Vec<_>>()))
    }

    #[test]
    fn items_get_qualified_names() {
        let p = parse_src(
            "impl<L: L3System> System<L> {\n    pub fn run(&self) {}\n}\n\
             impl L3System for Mock {\n    fn access(&self) {}\n}\n\
             fn free() {}\n\
             trait Probe {\n    fn begin(&self);\n    fn end(&self) {}\n}\n",
        );
        assert_eq!(fn_named(&p, "System::run").self_ty.as_deref(), Some("System"));
        let access = fn_named(&p, "Mock::access");
        assert_eq!(access.trait_of.as_deref(), Some("L3System"));
        assert!(fn_named(&p, "free").self_ty.is_none());
        // The bodiless trait signature is dropped; the default body stays.
        assert!(p.fns.iter().all(|f| f.qual != "Probe::begin"));
        assert_eq!(fn_named(&p, "Probe::end").trait_of.as_deref(), Some("Probe"));
        let probe = p.traits.iter().find(|t| t.name == "Probe").expect("trait");
        assert_eq!(probe.methods, ["begin", "end"]);
    }

    #[test]
    fn calls_are_classified() {
        let p = parse_src(
            "fn f(x: u64) -> u64 {\n    helper(x);\n    x.method();\n    Json::parse(\"\");\n    let v: Vec<u64> = it.collect::<Vec<u64>>();\n    if x > 1 { f(x) } else { x }\n}\n",
        );
        let f = fn_named(&p, "f");
        let call = |name: &str| {
            f.calls.iter().find(|c| c.name == name).unwrap_or_else(|| panic!("no call {name}"))
        };
        assert_eq!(call("helper").kind, CallKind::Bare);
        assert_eq!(call("method").kind, CallKind::Method);
        assert_eq!(call("parse").kind, CallKind::Path);
        assert_eq!(call("parse").qualifier.as_deref(), Some("Json"));
        assert_eq!(call("collect").kind, CallKind::Method);
        assert_eq!(call("f").kind, CallKind::Bare);
        // `if (..)`-style keywords never count as calls.
        assert!(f.calls.iter().all(|c| c.name != "if"));
    }

    #[test]
    fn alloc_sites_are_recorded() {
        let p = parse_src(
            "fn g(v: &mut Vec<u64>, o: Option<u64>) -> String {\n    v.push(1);\n    let b = Box::new(4u64);\n    let s = format!(\"x{}\", b);\n    o.unwrap();\n    s\n}\n",
        );
        let g = fn_named(&p, "g");
        let whats: Vec<&str> = g.allocs.iter().map(|s| s.what).collect();
        assert_eq!(whats, ["push", "Box::new", "format!"]);
    }

    #[test]
    fn boxed_closures_become_synthetic_fns() {
        let p = parse_src(
            "fn k_demo() -> Box<dyn FnMut() -> u64> {\n    let mut state = 0u64;\n    Box::new(move || {\n        state += 1;\n        body(state)\n    })\n}\n\
             fn k_expr(z: Zipf) -> Box<dyn FnMut() -> u64> {\n    let mut rng = 7u64;\n    Box::new(move || z.sample(&mut rng))\n}\n",
        );
        let demo = fn_named(&p, "k_demo::{closure}");
        assert!(demo.calls.iter().any(|c| c.name == "body"));
        // The factory keeps the Box::new alloc; the closure body does not.
        assert!(fn_named(&p, "k_demo").allocs.iter().any(|s| s.what == "Box::new"));
        assert!(demo.allocs.is_empty());
        let expr = fn_named(&p, "k_expr::{closure}");
        assert!(expr.calls.iter().any(|c| c.name == "sample" && c.kind == CallKind::Method));
        // Features after the closure's parens unwind go to the factory.
        assert!(fn_named(&p, "k_expr").calls.iter().any(|c| c.kind == CallKind::Closure));
    }

    #[test]
    fn hot_and_cold_markers_attach() {
        let p = parse_src(
            "// tdc-lint: hot\nfn fast_path() {}\n\
             fn factory() -> Box<dyn FnMut() -> u64> {\n    // tdc-lint: cold\n    Box::new(move || helper())\n}\n",
        );
        assert!(fn_named(&p, "fast_path").hot);
        assert!(fn_named(&p, "factory::{closure}").cold);
        assert!(!fn_named(&p, "factory").cold);
    }

    #[test]
    fn use_paths_and_kernel_factories() {
        let p = parse_src(
            "use tdc_util::pool::run_tasks;\nuse tdc_util::{json::Json, obs as observe};\n\
             fn micro_kernels() -> Vec<Kernel> {\n    vec![Kernel { group: \"dram\", name: \"x\", iters: 10, factory: k_x }]\n}\n",
        );
        assert_eq!(
            p.imports.get("run_tasks"),
            Some(&vec!["tdc_util".to_string(), "pool".to_string(), "run_tasks".to_string()])
        );
        assert_eq!(
            p.imports.get("Json"),
            Some(&vec!["tdc_util".to_string(), "json".to_string(), "Json".to_string()])
        );
        assert_eq!(
            p.imports.get("observe"),
            Some(&vec!["tdc_util".to_string(), "obs".to_string()])
        );
        assert_eq!(p.kernel_factories, ["k_x"]);
    }

    #[test]
    fn test_region_fns_are_marked() {
        let p = parse_src(
            "fn prod() {}\n#[cfg(test)]\nmod tests {\n    fn helper() {}\n}\n",
        );
        assert!(!fn_named(&p, "prod").is_test);
        assert!(fn_named(&p, "helper").is_test);
    }
}
