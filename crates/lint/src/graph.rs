//! Workspace symbol table, call graph, and the graph rule families.
//!
//! Built on [`crate::parser`] output for every scanned file. Call
//! resolution is deliberately over-approximate (class-hierarchy style):
//! a method call resolves to every known function of that name whose
//! `impl` type is mentioned in the calling file, plus every
//! implementation of a same-named trait method when the trait is
//! mentioned. No type inference — false edges are acceptable, missed
//! edges are not, because the rule reasons about *reachability* of
//! allocation sites.
//!
//! One rule runs on the graph: **hot-path-alloc**. Its roots are the
//! bench-registry kernels (`factory: k_name` entries, preferring the
//! boxed closure body `k_name::{closure}`) plus `// tdc-lint: hot`
//! fns; any allocation site transitively reachable from a root is
//! flagged. `// tdc-lint: cold` cuts traversal.

use crate::parser::{CallKind, FnInfo, ParsedFile, TraitInfo};
use crate::rules::RawFinding;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Version of the `graph` summary object in `results/lint.json`,
/// documented in DESIGN.md §14 (the `lint-graph` anchor).
pub const GRAPH_VERSION: u64 = 2;

/// Field names of the `graph` summary object, in serialization order.
pub const GRAPH_FIELDS: [&str; 4] = ["format_version", "functions", "edges", "roots"];

/// One function in the workspace graph.
pub struct Node<'a> {
    /// Workspace-relative path of the declaring file.
    pub file: &'a str,
    pub f: &'a FnInfo,
}

/// The resolved workspace call graph.
pub struct Graph<'a> {
    pub nodes: Vec<Node<'a>>,
    /// Sorted, deduped callee indices per node. Empty for test fns.
    pub edges: Vec<Vec<usize>>,
    /// Total resolved edges out of non-test fns.
    pub edge_count: usize,
}

/// The numbers reported in the `graph` section of `results/lint.json`.
#[derive(Debug, Clone, Copy, Default)]
pub struct GraphSummary {
    pub functions: usize,
    pub edges: usize,
    pub hot_roots: usize,
}

/// Builds and resolves the call graph over all parsed files.
pub fn build<'a>(files: &'a BTreeMap<String, ParsedFile>) -> Graph<'a> {
    let mut nodes = Vec::new();
    for (file, parsed) in files {
        for f in &parsed.fns {
            nodes.push(Node { file, f });
        }
    }

    // Candidate indices: only non-test fns can be callees.
    let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    let mut by_qual: BTreeMap<(&str, &str), usize> = BTreeMap::new();
    for (i, n) in nodes.iter().enumerate() {
        if n.f.is_test {
            continue;
        }
        by_name.entry(&n.f.name).or_default().push(i);
        by_qual.insert((n.file, &n.f.qual), i);
    }
    // Traits by name, methods merged across declarations.
    let mut traits: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for parsed in files.values() {
        for TraitInfo { name, methods } in &parsed.traits {
            traits
                .entry(name)
                .or_default()
                .extend(methods.iter().map(String::as_str));
        }
    }

    let empty: Vec<usize> = Vec::new();
    let mut edges: Vec<Vec<usize>> = Vec::with_capacity(nodes.len());
    let mut edge_count = 0;
    for n in &nodes {
        if n.f.is_test {
            edges.push(Vec::new());
            continue;
        }
        let ctx = &files[n.file];
        let mut adj: Vec<usize> = n
            .f
            .calls
            .iter()
            .flat_map(|call| {
                let cands = by_name.get(call.name.as_str()).unwrap_or(&empty);
                match call.kind {
                    CallKind::Closure => by_qual
                        .get(&(n.file, call.name.as_str()))
                        .map(|&t| vec![t])
                        .unwrap_or_default(),
                    CallKind::Method => {
                        let mut out: Vec<usize> = cands
                            .iter()
                            .copied()
                            .filter(|&t| {
                                nodes[t]
                                    .f
                                    .self_ty
                                    .as_ref()
                                    .is_some_and(|ty| ctx.idents.contains(ty))
                            })
                            .collect();
                        for (tr, methods) in &traits {
                            if methods.contains(call.name.as_str())
                                && ctx.idents.contains(*tr)
                            {
                                out.extend(cands.iter().copied().filter(|&t| {
                                    nodes[t].f.trait_of.as_deref() == Some(*tr)
                                }));
                            }
                        }
                        out
                    }
                    CallKind::Path => resolve_qualified(
                        &nodes,
                        cands,
                        n.file,
                        call.qualifier.as_deref(),
                    ),
                    CallKind::Bare => {
                        let same_file: Vec<usize> = cands
                            .iter()
                            .copied()
                            .filter(|&t| {
                                nodes[t].file == n.file && nodes[t].f.self_ty.is_none()
                            })
                            .collect();
                        if !same_file.is_empty() {
                            same_file
                        } else if let Some(path) = ctx.imports.get(&call.name) {
                            let penult = path.len().checked_sub(2).map(|k| path[k].as_str());
                            resolve_qualified(&nodes, cands, n.file, penult)
                        } else {
                            free_in_crate(&nodes, cands, crate_of(n.file))
                        }
                    }
                }
            })
            .collect();
        adj.sort_unstable();
        adj.dedup();
        edge_count += adj.len();
        edges.push(adj);
    }

    Graph { nodes, edges, edge_count }
}

/// `Type::name` / `module::name` resolution by the penultimate path
/// segment: impl methods of a matching type first, then free fns in a
/// matching file stem, then free fns in the caller's crate.
fn resolve_qualified(
    nodes: &[Node<'_>],
    cands: &[usize],
    caller_file: &str,
    qualifier: Option<&str>,
) -> Vec<usize> {
    let Some(q) = qualifier else {
        return free_in_crate(nodes, cands, crate_of(caller_file));
    };
    let typed: Vec<usize> = cands
        .iter()
        .copied()
        .filter(|&t| nodes[t].f.self_ty.as_deref() == Some(q))
        .collect();
    if !typed.is_empty() {
        return typed;
    }
    let stem_match: Vec<usize> = cands
        .iter()
        .copied()
        .filter(|&t| {
            nodes[t].f.self_ty.is_none()
                && (nodes[t].file.ends_with(&format!("/{q}.rs"))
                    || nodes[t].file == format!("{q}.rs"))
        })
        .collect();
    if !stem_match.is_empty() {
        return stem_match;
    }
    if q == "self" || q == "crate" {
        return free_in_crate(nodes, cands, crate_of(caller_file));
    }
    Vec::new()
}

fn free_in_crate(nodes: &[Node<'_>], cands: &[usize], krate: &str) -> Vec<usize> {
    cands
        .iter()
        .copied()
        .filter(|&t| nodes[t].f.self_ty.is_none() && crate_of(nodes[t].file) == krate)
        .collect()
}

/// `crates/util/src/pool.rs` → `crates/util`.
fn crate_of(file: &str) -> &str {
    let mut slashes = file.char_indices().filter(|&(_, c)| c == '/');
    let _ = slashes.next();
    match slashes.next() {
        Some((i, _)) => &file[..i],
        None => "",
    }
}

/// BFS over the graph from `roots`, skipping test and `cold` fns.
/// Returns each reached node's BFS parent (`None` for roots) for path
/// reconstruction.
pub fn reachable(g: &Graph<'_>, roots: &[usize]) -> BTreeMap<usize, Option<usize>> {
    let enterable = |i: usize| !g.nodes[i].f.is_test && !g.nodes[i].f.cold;
    let mut parent: BTreeMap<usize, Option<usize>> = BTreeMap::new();
    let mut queue = VecDeque::new();
    for &r in roots {
        if enterable(r) && !parent.contains_key(&r) {
            parent.insert(r, None);
            queue.push_back(r);
        }
    }
    while let Some(i) = queue.pop_front() {
        for &t in &g.edges[i] {
            if enterable(t) && !parent.contains_key(&t) {
                parent.insert(t, Some(i));
                queue.push_back(t);
            }
        }
    }
    parent
}

/// Renders the BFS path from the root down to `idx`, eliding the
/// middle of long chains.
fn chain(g: &Graph<'_>, parents: &BTreeMap<usize, Option<usize>>, idx: usize) -> String {
    let mut quals = vec![g.nodes[idx].f.qual.as_str()];
    let mut cur = idx;
    while let Some(Some(p)) = parents.get(&cur) {
        quals.push(g.nodes[*p].f.qual.as_str());
        cur = *p;
    }
    quals.reverse();
    if quals.len() > 5 {
        let elided = quals.len() - 4;
        format!(
            "{} -> {} -> [{elided} more] -> {}",
            quals[0],
            quals[1],
            quals[quals.len() - 1]
        )
    } else {
        quals.join(" -> ")
    }
}

/// Hot-path roots: every bench-registry kernel (preferring its boxed
/// closure body) plus `// tdc-lint: hot` fns. Returns sorted indices.
pub fn hot_roots(files: &BTreeMap<String, ParsedFile>, g: &Graph<'_>) -> Vec<usize> {
    let mut roots = BTreeSet::new();
    let mut factories: BTreeSet<&str> = BTreeSet::new();
    for parsed in files.values() {
        factories.extend(parsed.kernel_factories.iter().map(String::as_str));
    }
    for k in factories {
        let closure_qual = format!("{k}::{{closure}}");
        let closure = g
            .nodes
            .iter()
            .position(|n| !n.f.is_test && n.f.qual == closure_qual);
        let target = closure.or_else(|| {
            g.nodes
                .iter()
                .position(|n| !n.f.is_test && n.f.self_ty.is_none() && n.f.qual == k)
        });
        roots.extend(target);
    }
    for (i, n) in g.nodes.iter().enumerate() {
        if n.f.hot && !n.f.is_test {
            roots.insert(i);
        }
    }
    roots.into_iter().collect()
}

/// The hot-path-alloc rule: flag allocation sites reachable from hot
/// roots.
pub fn hot_path_alloc(files: &BTreeMap<String, ParsedFile>, g: &Graph<'_>) -> Vec<RawFinding> {
    let roots = hot_roots(files, g);
    let parents = reachable(g, &roots);
    let mut out: BTreeMap<(String, usize, &str), RawFinding> = BTreeMap::new();
    for &i in parents.keys() {
        let n = &g.nodes[i];
        for site in &n.f.allocs {
            let key = (n.file.to_string(), site.line, site.what);
            out.entry(key).or_insert_with(|| RawFinding {
                file: n.file.to_string(),
                line: site.line,
                rule: "hot-path-alloc",
                message: format!(
                    "`{}` in `{}` allocates on a hot path ({})",
                    site.what,
                    n.f.qual,
                    chain(g, &parents, i)
                ),
            });
        }
    }
    out.into_values().collect()
}

/// Computes the `graph` summary reported in `results/lint.json`.
pub fn summary(files: &BTreeMap<String, ParsedFile>, g: &Graph<'_>) -> GraphSummary {
    GraphSummary {
        functions: g.nodes.iter().filter(|n| !n.f.is_test).count(),
        edges: g.edge_count,
        hot_roots: hot_roots(files, g).len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::scan;
    use crate::parser::parse;

    fn workspace(files: &[(&str, &str)]) -> BTreeMap<String, ParsedFile> {
        files
            .iter()
            .map(|(path, src)| (path.to_string(), parse(&scan(src))))
            .collect()
    }

    fn node<'a>(g: &Graph<'a>, qual: &str) -> usize {
        g.nodes
            .iter()
            .position(|n| n.f.qual == qual)
            .unwrap_or_else(|| panic!("no node {qual}"))
    }

    #[test]
    fn cross_crate_method_resolution_requires_type_mention() {
        let files = workspace(&[
            (
                "crates/cache/src/tagless.rs",
                "pub struct TaglessCache;\nimpl TaglessCache {\n    pub fn translate(&self) {}\n}\n",
            ),
            (
                "crates/harness/src/kernels.rs",
                "use tdc_dram_cache::TaglessCache;\nfn drive(c: &TaglessCache) {\n    c.translate();\n}\n",
            ),
            (
                "crates/other/src/lib.rs",
                "fn unrelated(x: &Foo) {\n    x.translate();\n}\n",
            ),
        ]);
        let g = build(&files);
        let drive = node(&g, "drive");
        let translate = node(&g, "TaglessCache::translate");
        assert!(g.edges[drive].contains(&translate));
        // The file that never mentions TaglessCache gets no edge.
        let unrelated = node(&g, "unrelated");
        assert!(!g.edges[unrelated].contains(&translate));
    }

    #[test]
    fn trait_method_fallback_resolves_all_impls() {
        let files = workspace(&[
            (
                "crates/core/src/lib.rs",
                "pub trait Org {\n    fn access(&self);\n}\npub struct System;\nimpl System {\n    fn run(&self, o: &dyn Org) {\n        o.access();\n    }\n}\n",
            ),
            (
                "crates/dram-cache/src/tagless.rs",
                "impl Org for TaglessCache {\n    fn access(&self) {}\n}\n",
            ),
        ]);
        let g = build(&files);
        let run = node(&g, "System::run");
        let exec = node(&g, "TaglessCache::access");
        assert!(g.edges[run].contains(&exec));
    }

    #[test]
    fn recursion_cycles_terminate() {
        let files = workspace(&[(
            "crates/a/src/lib.rs",
            "fn a(n: u64) -> u64 {\n    b(n)\n}\nfn b(n: u64) -> u64 {\n    if n > 0 { a(n - 1) } else { 0 }\n}\n",
        )]);
        let g = build(&files);
        let a = node(&g, "a");
        let parents = reachable(&g, &[a]);
        assert!(parents.contains_key(&node(&g, "b")));
        assert_eq!(parents.len(), 2);
    }

    #[test]
    fn hot_path_alloc_flags_reachable_growth() {
        let files = workspace(&[(
            "crates/harness/src/kernels.rs",
            "pub fn micro_kernels() -> Vec<Kernel> {\n    vec![Kernel { group: \"g\", name: \"n\", iters: 4, factory: k_demo }]\n}\nfn k_demo() -> Box<dyn FnMut() -> u64> {\n    let setup: Vec<u64> = Vec::new();\n    Box::new(move || hot_body(&setup))\n}\nfn hot_body(v: &[u64]) -> u64 {\n    let mut out = Vec::new();\n    out.push(1u64);\n    out[0]\n}\nfn cold_helper() -> String {\n    format!(\"never hot\")\n}\n",
        )]);
        let g = build(&files);
        let findings = hot_path_alloc(&files, &g);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("push"));
        assert!(findings[0].message.contains("k_demo::{closure}"));
        // Factory setup (the Box::new itself) is not hot.
        assert!(!findings.iter().any(|f| f.message.contains("Box::new")));
    }

    #[test]
    fn cold_pragma_cuts_traversal() {
        let files = workspace(&[(
            "crates/harness/src/kernels.rs",
            "pub fn micro_kernels() -> Vec<Kernel> {\n    vec![Kernel { group: \"g\", name: \"n\", iters: 4, factory: k_demo }]\n}\nfn k_demo() -> Box<dyn FnMut() -> u64> {\n    // tdc-lint: cold\n    Box::new(move || busy())\n}\nfn busy() -> u64 {\n    let mut v = Vec::new();\n    v.push(1u64);\n    v[0]\n}\n",
        )]);
        let g = build(&files);
        assert!(hot_path_alloc(&files, &g).is_empty());
    }

    #[test]
    fn summary_counts_non_test_fns() {
        let files = workspace(&[(
            "crates/a/src/lib.rs",
            "fn prod() {\n    helper();\n}\nfn helper() {}\n#[cfg(test)]\nmod tests {\n    fn t() {\n        helper();\n    }\n}\n",
        )]);
        let g = build(&files);
        let s = summary(&files, &g);
        assert_eq!(s.functions, 2);
        assert_eq!(s.edges, 1);
    }
}
