//! Conformance lints for the OpenFLAME workspace.
//!
//! `cargo run -p xtask -- lint` runs every rule over the repo and exits
//! non-zero on any finding. All scanning is token-level over raw source
//! text — no proc-macro parsing, no external crates — so the pass stays
//! fast and dependency-free. The rules (and the `spec §` / `paper §`
//! reference convention they enforce) are documented in
//! `docs/conformance.md`.

use std::collections::BTreeMap;
use std::collections::BTreeSet;
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

/// One lint violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Repo-relative path of the offending file.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Stable rule id (e.g. `spec-ref`, `wire-tags`, `forbidden-api`).
    pub rule: &'static str,
    /// Human-readable explanation.
    pub msg: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.msg
        )
    }
}

// ----------------------------------------------------------------
// Source-text preprocessing.
// ----------------------------------------------------------------

/// Blanks out comments, string literals and char literals in Rust
/// source, preserving byte offsets and newlines so line numbers keep
/// meaning. Lifetimes (`'a`) are left intact; nested block comments and
/// raw strings (`r#"…"#`) are handled.
pub fn strip_comments_and_strings(src: &str) -> String {
    let b = src.as_bytes();
    let mut out: Vec<u8> = Vec::with_capacity(b.len());
    let mut i = 0;
    let blank = |out: &mut Vec<u8>, b: &[u8], from: usize, to: usize| {
        for &c in &b[from..to] {
            out.push(if c == b'\n' { b'\n' } else { b' ' });
        }
    };
    while i < b.len() {
        match b[i] {
            b'/' if i + 1 < b.len() && b[i + 1] == b'/' => {
                let end = src[i..].find('\n').map(|p| i + p).unwrap_or(b.len());
                blank(&mut out, b, i, end);
                i = end;
            }
            b'/' if i + 1 < b.len() && b[i + 1] == b'*' => {
                let mut depth = 1;
                let mut j = i + 2;
                while j < b.len() && depth > 0 {
                    if b[j] == b'/' && j + 1 < b.len() && b[j + 1] == b'*' {
                        depth += 1;
                        j += 2;
                    } else if b[j] == b'*' && j + 1 < b.len() && b[j + 1] == b'/' {
                        depth -= 1;
                        j += 2;
                    } else {
                        j += 1;
                    }
                }
                blank(&mut out, b, i, j);
                i = j;
            }
            b'r' | b'b' if raw_string_end(b, i).is_some() => {
                let end = raw_string_end(b, i).expect("checked in guard");
                blank(&mut out, b, i, end);
                i = end;
            }
            b'"' => {
                let mut j = i + 1;
                while j < b.len() {
                    match b[j] {
                        b'\\' => j += 2,
                        b'"' => {
                            j += 1;
                            break;
                        }
                        _ => j += 1,
                    }
                }
                blank(&mut out, b, i, j.min(b.len()));
                i = j.min(b.len());
            }
            b'\'' => {
                // Char literal iff it closes within a few bytes;
                // otherwise it's a lifetime and passes through.
                let close = if i + 2 < b.len() && b[i + 1] == b'\\' {
                    src[i + 2..].find('\'').map(|p| i + 2 + p + 1)
                } else if i + 2 < b.len() && b[i + 2] == b'\'' {
                    Some(i + 3)
                } else {
                    None
                };
                match close {
                    Some(end) if end - i <= 6 => {
                        blank(&mut out, b, i, end);
                        i = end;
                    }
                    _ => {
                        out.push(b[i]);
                        i += 1;
                    }
                }
            }
            c => {
                out.push(c);
                i += 1;
            }
        }
    }
    String::from_utf8(out).expect("stripping is ascii-preserving")
}

/// If `b[i]` starts a raw (or raw-byte) string literal, returns the
/// offset one past its end.
fn raw_string_end(b: &[u8], i: usize) -> Option<usize> {
    let mut j = i;
    if b[j] == b'b' {
        j += 1;
    }
    if j >= b.len() || b[j] != b'r' {
        return None;
    }
    j += 1;
    let mut hashes = 0;
    while j < b.len() && b[j] == b'#' {
        hashes += 1;
        j += 1;
    }
    if j >= b.len() || b[j] != b'"' {
        return None;
    }
    j += 1;
    while j < b.len() {
        if b[j] == b'"' {
            let mut k = j + 1;
            let mut seen = 0;
            while k < b.len() && b[k] == b'#' && seen < hashes {
                seen += 1;
                k += 1;
            }
            if seen == hashes {
                return Some(k);
            }
        }
        j += 1;
    }
    Some(b.len())
}

/// Blanks out every item gated behind `#[cfg(test)]` (the attribute,
/// through the matching close brace of the item it gates). Call on
/// already-stripped source.
pub fn mask_cfg_test_regions(stripped: &str) -> String {
    let mut out = stripped.as_bytes().to_vec();
    let mut search_from = 0;
    while let Some(rel) = stripped[search_from..].find("#[cfg(test)]") {
        let attr_start = search_from + rel;
        let mut j = attr_start;
        // Find the gated item's opening brace, then its close.
        let open = match stripped[j..].find('{') {
            Some(p) => j + p,
            None => break,
        };
        j = open + 1;
        let mut depth = 1;
        let b = stripped.as_bytes();
        while j < b.len() && depth > 0 {
            match b[j] {
                b'{' => depth += 1,
                b'}' => depth -= 1,
                _ => {}
            }
            j += 1;
        }
        for c in &mut out[attr_start..j] {
            if *c != b'\n' {
                *c = b' ';
            }
        }
        search_from = j;
    }
    String::from_utf8(out).expect("masking is ascii-preserving")
}

/// 1-based line number of byte offset `idx`.
pub fn line_of(src: &str, idx: usize) -> usize {
    src[..idx.min(src.len())]
        .bytes()
        .filter(|&c| c == b'\n')
        .count()
        + 1
}

// ----------------------------------------------------------------
// Rule: spec-ref — every `§N[.M]` reference is qualified and resolves.
// ----------------------------------------------------------------

/// Section numbers with live headings in `docs/wire-protocol.md`
/// (`"2"`, `"6.1"`, …).
pub fn doc_headings(doc: &str) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for line in doc.lines() {
        let rest = if let Some(r) = line.strip_prefix("### ") {
            r
        } else if let Some(r) = line.strip_prefix("## ") {
            r
        } else {
            continue;
        };
        let num: String = rest
            .chars()
            .take_while(|c| c.is_ascii_digit() || *c == '.')
            .collect();
        let num = num.trim_end_matches('.').to_string();
        if !num.is_empty() {
            out.insert(num);
        }
    }
    out
}

/// Whether the text before a `§` ends in an accepted qualifier word,
/// looking through comment markers and line wraps.
fn qualifier_before(prefix: &str) -> Option<&'static str> {
    let mut t = prefix.trim_end();
    // Step back over comment-continuation markers so `spec\n/// spec §7`
    // still counts as qualified.
    loop {
        let t2 = t
            .trim_end_matches("///")
            .trim_end_matches("//!")
            .trim_end_matches("//")
            .trim_end_matches('*')
            .trim_end();
        if t2.len() == t.len() {
            break;
        }
        t = t2;
    }
    let t = t.trim_end_matches("'s").trim_end_matches("’s");
    let lower_tail: String = t
        .chars()
        .rev()
        .take(8)
        .collect::<String>()
        .chars()
        .rev()
        .collect::<String>()
        .to_ascii_lowercase();
    let word_ok = |tail: &str, w: &str| {
        tail.ends_with(w)
            && tail[..tail.len() - w.len()]
                .chars()
                .next_back()
                .map(|c| !c.is_ascii_alphanumeric())
                .unwrap_or(true)
    };
    if word_ok(&lower_tail, "spec") {
        Some("spec")
    } else if word_ok(&lower_tail, "paper") {
        Some("paper")
    } else {
        None
    }
}

/// Scans `content` for `§` references; `headings` are the live spec
/// sections.
pub fn spec_ref_findings(file: &str, content: &str, headings: &BTreeSet<String>) -> Vec<Finding> {
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(rel) = content[from..].find('§') {
        let idx = from + rel;
        let after = &content[idx + '§'.len_utf8()..];
        let after = after.strip_prefix(' ').unwrap_or(after);
        let num: String = after
            .chars()
            .take_while(|c| c.is_ascii_digit() || *c == '.')
            .collect();
        let num = num.trim_end_matches('.').to_string();
        let line = line_of(content, idx);
        if num.is_empty() {
            out.push(Finding {
                file: file.to_string(),
                line,
                rule: "spec-ref",
                msg: "malformed section reference: `§` not followed by a section number"
                    .to_string(),
            });
        } else {
            match qualifier_before(&content[..idx]) {
                Some("spec") => {
                    if !headings.contains(&num) {
                        out.push(Finding {
                            file: file.to_string(),
                            line,
                            rule: "spec-ref",
                            msg: format!(
                                "stale spec reference: `spec §{num}` does not match any \
                                 heading in docs/wire-protocol.md"
                            ),
                        });
                    }
                }
                Some(_) => {} // paper refs are exempt from resolution
                None => {
                    out.push(Finding {
                        file: file.to_string(),
                        line,
                        rule: "spec-ref",
                        msg: format!(
                            "unqualified section reference `§{num}`: write `spec §{num}` \
                             (docs/wire-protocol.md) or `paper §{num}` (source paper)"
                        ),
                    });
                }
            }
        }
        from = idx + '§'.len_utf8();
    }
    out
}

// ----------------------------------------------------------------
// Rule: wire-tags — protocol.rs encode/decode arms and the spec's tag
// table agree.
// ----------------------------------------------------------------

/// tag → variant name, for one direction of one source of truth.
pub type TagMap = BTreeMap<u8, String>;

/// Extracts `| N | Name |` rows from the spec's §2 message-tag tables.
/// Rows belong to the Request or Response table according to the most
/// recent header row mentioning `Request` / `Response`.
pub fn tags_from_doc(doc: &str) -> (TagMap, TagMap) {
    let sec2 = section_region(doc, "## 2.");
    let mut req = TagMap::new();
    let mut resp = TagMap::new();
    let mut current: Option<bool> = None; // true = request table
    for line in sec2.lines() {
        let t = line.trim();
        if !t.starts_with('|') {
            continue;
        }
        if t.contains("Request") {
            current = Some(true);
            continue;
        }
        if t.contains("Response") {
            current = Some(false);
            continue;
        }
        let cells: Vec<&str> = t.trim_matches('|').split('|').collect();
        if cells.len() < 2 {
            continue;
        }
        let tag: Result<u8, _> = cells[0].trim().parse();
        let name = cells[1].trim().trim_matches('`').to_string();
        if let (Ok(tag), Some(is_req)) = (tag, current) {
            if name.is_empty() {
                continue;
            }
            if is_req {
                req.insert(tag, name);
            } else {
                resp.insert(tag, name);
            }
        }
    }
    (req, resp)
}

/// The slice of `doc` from the heading starting with `prefix` to the
/// next `## ` heading (empty if absent).
fn section_region<'a>(doc: &'a str, prefix: &str) -> &'a str {
    let Some(start) = doc
        .lines()
        .scan(0usize, |off, l| {
            let at = *off;
            *off += l.len() + 1;
            Some((at, l))
        })
        .find(|(_, l)| l.starts_with(prefix))
        .map(|(at, _)| at)
    else {
        return "";
    };
    let body = &doc[start..];
    let end = body[3..]
        .find("\n## ")
        .map(|p| p + 3 + 1)
        .unwrap_or(body.len());
    &body[..end]
}

/// Extracts tag → variant pairs from an `encode` body: each
/// `{enum_name}::Variant` match arm paired with the first subsequent
/// `put_u8(N)`.
pub fn tags_from_encode(stripped_region: &str, enum_name: &str) -> TagMap {
    let mut out = TagMap::new();
    let needle = format!("{enum_name}::");
    let mut from = 0;
    while let Some(rel) = stripped_region[from..].find(&needle) {
        let at = from + rel + needle.len();
        let variant: String = stripped_region[at..]
            .chars()
            .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
            .collect();
        if let Some(put) = stripped_region[at..].find("put_u8(") {
            let nstart = at + put + "put_u8(".len();
            let digits: String = stripped_region[nstart..]
                .chars()
                .take_while(|c| c.is_ascii_digit())
                .collect();
            if let Ok(tag) = digits.parse::<u8>() {
                out.entry(tag).or_insert(variant);
            }
        }
        from = at;
    }
    out
}

/// Extracts tag → variant pairs from a `decode` body: numeric arms of
/// the **outermost** `match r.read_u8()?`, each paired with the first
/// `{enum_name}::Variant` in its arm. Inner tag matches (optional
/// fields, nested enums) sit at deeper brace depth and are skipped.
pub fn tags_from_decode(stripped_region: &str, enum_name: &str) -> TagMap {
    let mut out = TagMap::new();
    let Some(m) = stripped_region.find("match r.read_u8()?") else {
        return out;
    };
    let Some(open_rel) = stripped_region[m..].find('{') else {
        return out;
    };
    let body_start = m + open_rel + 1;
    let b = stripped_region.as_bytes();
    let mut depth = 1usize;
    let mut i = body_start;
    let needle = format!("{enum_name}::");
    while i < b.len() && depth > 0 {
        match b[i] {
            b'{' => depth += 1,
            b'}' => depth -= 1,
            b'0'..=b'9' if depth == 1 => {
                let nstart = i;
                while i < b.len() && b[i].is_ascii_digit() {
                    i += 1;
                }
                let digits = &stripped_region[nstart..i];
                let rest = stripped_region[i..].trim_start();
                if rest.starts_with("=>") {
                    if let Ok(tag) = digits.parse::<u8>() {
                        if let Some(v) = stripped_region[i..].find(&needle) {
                            let vat = i + v + needle.len();
                            let variant: String = stripped_region[vat..]
                                .chars()
                                .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                                .collect();
                            out.entry(tag).or_insert(variant);
                        }
                    }
                }
                continue;
            }
            _ => {}
        }
        i += 1;
    }
    out
}

/// The stripped slice of protocol source holding one direction's
/// `encode` body: from `impl Wire for {enum_name}` to the next
/// `fn decode`.
pub fn encode_region<'a>(stripped: &'a str, enum_name: &str) -> &'a str {
    let needle = format!("impl Wire for {enum_name}");
    let Some(start) = stripped.find(&needle) else {
        return "";
    };
    let body = &stripped[start..];
    let end = body.find("fn decode").unwrap_or(body.len());
    &body[..end]
}

/// The stripped slice holding one direction's decode fn: from
/// `fn {fn_name}` to the next top-of-line `fn ` or `impl `.
pub fn decode_region<'a>(stripped: &'a str, fn_name: &str) -> &'a str {
    let needle = format!("fn {fn_name}");
    let Some(start) = stripped.find(&needle) else {
        return "";
    };
    let body = &stripped[start..];
    let end = body[needle.len()..]
        .find("\nfn ")
        .into_iter()
        .chain(body[needle.len()..].find("\nimpl "))
        .min()
        .map(|p| p + needle.len())
        .unwrap_or(body.len());
    &body[..end]
}

fn diff_tag_maps(
    findings: &mut Vec<Finding>,
    file: &str,
    what_a: &str,
    a: &TagMap,
    what_b: &str,
    b: &TagMap,
) {
    for (tag, name) in a {
        match b.get(tag) {
            None => findings.push(Finding {
                file: file.to_string(),
                line: 1,
                rule: "wire-tags",
                msg: format!("tag {tag} (`{name}`) present in {what_a} but missing from {what_b}"),
            }),
            Some(other) if other != name => findings.push(Finding {
                file: file.to_string(),
                line: 1,
                rule: "wire-tags",
                msg: format!("tag {tag} is `{name}` in {what_a} but `{other}` in {what_b}"),
            }),
            Some(_) => {}
        }
    }
    for (tag, name) in b {
        if !a.contains_key(tag) {
            findings.push(Finding {
                file: file.to_string(),
                line: 1,
                rule: "wire-tags",
                msg: format!("tag {tag} (`{name}`) present in {what_b} but missing from {what_a}"),
            });
        }
    }
}

/// Cross-checks the paper §2 tag tables against protocol.rs encode and decode
/// arms (both directions), and the spec §10 Busy-tag prose against the
/// table.
pub fn wire_tag_findings(protocol_src: &str, doc: &str) -> Vec<Finding> {
    let mut out = Vec::new();
    let stripped = strip_comments_and_strings(protocol_src);
    let (doc_req, doc_resp) = tags_from_doc(doc);
    let file = "crates/mapserver/src/protocol.rs";
    if doc_req.is_empty() || doc_resp.is_empty() {
        out.push(Finding {
            file: "docs/wire-protocol.md".to_string(),
            line: 1,
            rule: "wire-tags",
            msg: "could not find the Request/Response tag tables in spec §2".to_string(),
        });
        return out;
    }
    let enc_req = tags_from_encode(encode_region(&stripped, "Request"), "Request");
    let dec_req = tags_from_decode(decode_region(&stripped, "decode_request"), "Request");
    let enc_resp = tags_from_encode(encode_region(&stripped, "Response"), "Response");
    let dec_resp = tags_from_decode(decode_region(&stripped, "decode_response"), "Response");
    diff_tag_maps(
        &mut out,
        file,
        "Request encode",
        &enc_req,
        "Request decode",
        &dec_req,
    );
    diff_tag_maps(
        &mut out,
        file,
        "Request encode",
        &enc_req,
        "the spec §2 Request table",
        &doc_req,
    );
    diff_tag_maps(
        &mut out,
        file,
        "Response encode",
        &enc_resp,
        "Response decode",
        &dec_resp,
    );
    diff_tag_maps(
        &mut out,
        file,
        "Response encode",
        &enc_resp,
        "the spec §2 Response table",
        &doc_resp,
    );
    // spec §10 prose states the Busy envelope tag; keep it honest too.
    let sec10 = section_region(doc, "## 10.");
    if let Some(p) = sec10.find("response tag ") {
        let digits: String = sec10[p + "response tag ".len()..]
            .chars()
            .take_while(|c| c.is_ascii_digit())
            .collect();
        let busy_tag = doc_resp
            .iter()
            .find(|(_, v)| v.as_str() == "Busy")
            .map(|(k, _)| *k);
        if let (Ok(stated), Some(actual)) = (digits.parse::<u8>(), busy_tag) {
            if stated != actual {
                out.push(Finding {
                    file: "docs/wire-protocol.md".to_string(),
                    line: 1,
                    rule: "wire-tags",
                    msg: format!(
                        "spec §10 says the Busy envelope uses response tag {stated}, but the \
                         paper §2 table assigns Busy tag {actual}"
                    ),
                });
            }
        }
    }
    out
}

// ----------------------------------------------------------------
// Rule: forbidden-api — raw sync primitives, reactor blocking, netsim
// unwrap.
// ----------------------------------------------------------------

/// Flags forbidden constructs in one Rust source file (non-test code
/// only — `#[cfg(test)]` regions are masked out first).
pub fn forbidden_api_findings(file: &str, content: &str) -> Vec<Finding> {
    let mut out = Vec::new();
    let masked = mask_cfg_test_regions(&strip_comments_and_strings(content));
    let flag = |out: &mut Vec<Finding>, idx: usize, msg: String| {
        out.push(Finding {
            file: file.to_string(),
            line: line_of(&masked, idx),
            rule: "forbidden-api",
            msg,
        });
    };
    // Raw std/parking_lot sync primitives anywhere outside the diag
    // wrapper crate (which is exempted by the caller).
    for needle in [
        "std::sync::Mutex",
        "std::sync::RwLock",
        "std::sync::Condvar",
    ] {
        let mut from = 0;
        while let Some(rel) = masked[from..].find(needle) {
            let idx = from + rel;
            flag(
                &mut out,
                idx,
                format!(
                    "raw `{needle}` outside the diag wrapper: use \
                     `openflame_diag::Ordered{}` with a rank from the global table",
                    &needle["std::sync::".len()..]
                ),
            );
            from = idx + needle.len();
        }
    }
    let mut from = 0;
    while let Some(rel) = masked[from..].find("parking_lot") {
        let idx = from + rel;
        flag(
            &mut out,
            idx,
            "`parking_lot` primitives are retired: use the ranked wrappers in openflame-diag"
                .to_string(),
        );
        from = idx + "parking_lot".len();
    }
    // Reactor threads must never block: no sleeps, no mutexes at all.
    if file.ends_with("netsim/src/reactor.rs") {
        for needle in ["thread::sleep", "Mutex"] {
            let mut from = 0;
            while let Some(rel) = masked[from..].find(needle) {
                let idx = from + rel;
                flag(
                    &mut out,
                    idx,
                    format!(
                        "`{needle}` on a reactor code path: reactor threads are readiness-driven \
                         and must never block (spec Appendix A)"
                    ),
                );
                from = idx + needle.len();
            }
        }
    }
    // Transport internals surface errors, they don't assert on them.
    if file.contains("netsim/src/") {
        let mut from = 0;
        while let Some(rel) = masked[from..].find(".unwrap()") {
            let idx = from + rel;
            flag(
                &mut out,
                idx,
                "`unwrap()` in non-test netsim code: propagate the error or use \
                 `expect(\"why this cannot fail\")`"
                    .to_string(),
            );
            from = idx + ".unwrap()".len();
        }
    }
    out
}

// ----------------------------------------------------------------
// Rule: bench-schema — BENCH_*.json producers keep their required keys.
// ----------------------------------------------------------------

/// Required key tokens per BENCH artifact producer, as they appear
/// (escaped) inside the producer's format strings. Columns can grow;
/// these can never disappear.
pub const BENCH_REQUIRED: &[(&str, &[&str])] = &[
    (
        "crates/loadgen/src/harness.rs",
        &[
            "\\\"bench\\\":",
            "\\\"backend\\\":",
            "\\\"ops_submitted\\\":",
            "\\\"ops_served\\\":",
            "\\\"ops_shed\\\":",
            "\\\"ops_errors\\\":",
            "\\\"throughput_per_sec\\\":",
            "\\\"max_dispatch_depth\\\":",
            "\\\"p50_us\\\":",
            "\\\"p99_us\\\":",
            "\\\"p999_us\\\":",
        ],
    ),
    (
        "crates/bench/src/bin/transport_bench.rs",
        &[
            "\\\"bench\\\":\\\"fleet_sweep\\\"",
            "\\\"bench\\\":\\\"fanout_sweep\\\"",
            "\\\"bench\\\":\\\"slow_request\\\"",
            "\\\"bench\\\":\\\"planner_sweep\\\"",
            "\\\"backend\\\":",
            "\\\"servers_consulted\\\":",
            "\\\"servers_pruned\\\":",
        ],
    ),
];

/// Checks one producer source against its required key list.
pub fn bench_schema_findings(file: &str, content: &str, required: &[&str]) -> Vec<Finding> {
    let mut out = Vec::new();
    for key in required {
        if !content.contains(key) {
            out.push(Finding {
                file: file.to_string(),
                line: 1,
                rule: "bench-schema",
                msg: format!(
                    "BENCH artifact schema key {} missing from producer: columns may be \
                     added but never removed or renamed",
                    key.replace('\\', "")
                ),
            });
        }
    }
    out
}

/// Sanity-checks an emitted BENCH_*.json artifact (one JSON object per
/// non-empty line, each carrying a `bench` discriminator).
pub fn bench_artifact_findings(file: &str, content: &str) -> Vec<Finding> {
    let mut out = Vec::new();
    for (i, line) in content.lines().enumerate() {
        let t = line.trim();
        if t.is_empty() {
            continue;
        }
        if !t.starts_with('{') || !t.ends_with('}') || !t.contains("\"bench\":") {
            out.push(Finding {
                file: file.to_string(),
                line: i + 1,
                rule: "bench-schema",
                msg: "BENCH artifact line is not a JSON object with a \"bench\" key".to_string(),
            });
        }
    }
    out
}

// ----------------------------------------------------------------
// Rule: rank-doc — every lock rank is documented in spec Appendix A.
// ----------------------------------------------------------------

/// Extracts `Rank::new(value, "name")` declarations from ranks.rs.
pub fn declared_ranks(ranks_src: &str) -> Vec<(u16, String)> {
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(rel) = ranks_src[from..].find("Rank::new(") {
        let at = from + rel + "Rank::new(".len();
        let rest = &ranks_src[at..];
        let digits: String = rest.chars().take_while(|c| c.is_ascii_digit()).collect();
        if let Ok(v) = digits.parse::<u16>() {
            if let Some(q) = rest.find('"') {
                let name: String = rest[q + 1..].chars().take_while(|c| *c != '"').collect();
                out.push((v, name));
            }
        }
        from = at;
    }
    out
}

/// Every declared rank must appear (by name) in the spec's Appendix A
/// threading-model section, so the prose table cannot silently drift
/// from the code.
pub fn rank_doc_findings(ranks_src: &str, doc: &str) -> Vec<Finding> {
    let appendix = section_region(doc, "## Appendix A");
    let mut out = Vec::new();
    for (value, name) in declared_ranks(ranks_src) {
        if name.starts_with("test.") {
            continue;
        }
        if !appendix.contains(&name) {
            out.push(Finding {
                file: "docs/wire-protocol.md".to_string(),
                line: 1,
                rule: "rank-doc",
                msg: format!(
                    "lock rank `{name}` ({value}) from crates/diag/src/ranks.rs is not \
                     documented in Appendix A"
                ),
            });
        }
    }
    out
}

// ----------------------------------------------------------------
// Driver.
// ----------------------------------------------------------------

/// Recursively collects files under `dir` with extension `ext`,
/// skipping `target/`.
fn collect_files(dir: &Path, ext: &str, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == ".git" {
                continue;
            }
            collect_files(&path, ext, out);
        } else if path.extension().and_then(|e| e.to_str()) == Some(ext) {
            out.push(path);
        }
    }
    out.sort();
}

fn rel(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

/// Runs every lint rule over the workspace rooted at `root`. Returns
/// all findings plus the number of files scanned.
pub fn run_lint(root: &Path) -> (Vec<Finding>, usize) {
    let mut findings = Vec::new();
    let doc = fs::read_to_string(root.join("docs/wire-protocol.md")).unwrap_or_default();
    if doc.is_empty() {
        findings.push(Finding {
            file: "docs/wire-protocol.md".to_string(),
            line: 1,
            rule: "spec-ref",
            msg: "docs/wire-protocol.md missing or unreadable".to_string(),
        });
        return (findings, 0);
    }
    let headings = doc_headings(&doc);

    let mut rust_files = Vec::new();
    collect_files(&root.join("crates"), "rs", &mut rust_files);
    let mut md_files = Vec::new();
    collect_files(&root.join("docs"), "md", &mut md_files);

    let mut scanned = 0;
    for path in &rust_files {
        let file = rel(root, path);
        let Ok(content) = fs::read_to_string(path) else {
            continue;
        };
        scanned += 1;
        let exempt = file.starts_with("crates/diag/") || file.starts_with("crates/xtask/");
        if !exempt {
            // (xtask's own sources and fixtures talk about the `§N`
            // syntax generically, so the linter does not lint itself.)
            findings.extend(spec_ref_findings(&file, &content, &headings));
        }
        let in_tests_dir = file.contains("/tests/");
        if !exempt && !in_tests_dir {
            findings.extend(forbidden_api_findings(&file, &content));
        }
    }
    for path in &md_files {
        let file = rel(root, path);
        let Ok(content) = fs::read_to_string(path) else {
            continue;
        };
        scanned += 1;
        findings.extend(spec_ref_findings(&file, &content, &headings));
    }

    if let Ok(protocol) = fs::read_to_string(root.join("crates/mapserver/src/protocol.rs")) {
        findings.extend(wire_tag_findings(&protocol, &doc));
    }
    if let Ok(ranks_src) = fs::read_to_string(root.join("crates/diag/src/ranks.rs")) {
        findings.extend(rank_doc_findings(&ranks_src, &doc));
    }
    for (file, required) in BENCH_REQUIRED {
        if let Ok(content) = fs::read_to_string(root.join(file)) {
            findings.extend(bench_schema_findings(file, &content, required));
        }
    }
    if let Ok(entries) = fs::read_dir(root) {
        for entry in entries.flatten() {
            let name = entry.file_name();
            let name = name.to_string_lossy().to_string();
            if name.starts_with("BENCH_") && name.ends_with(".json") {
                if let Ok(content) = fs::read_to_string(entry.path()) {
                    findings.extend(bench_artifact_findings(&name, &content));
                }
            }
        }
    }

    (findings, scanned)
}
