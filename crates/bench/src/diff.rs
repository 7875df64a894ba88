//! Cell-by-cell comparison of two artifact files (`report diff OLD NEW`).
//!
//! Every cell of an artifact is exact (a setting, a simulated number or an
//! outcome), so two runs of the same tree must agree on every one of them.
//! [`diff`] reads two files written by [`crate::artifact::Artifact::to_json`]
//! and names each cell that moved, appeared or disappeared, matched by
//! (table, row, cell name); a top-level cell (`artifact`, a parameter or a
//! summary value) has no table and row. Values compare as their JSON text.

use std::collections::BTreeMap;

/// Where a cell sits: `name` for a top-level cell, `table[row].name` for a
/// table cell.
type Location = String;

/// The differing cells of two artifact texts, one `location: old → new`
/// line each, in the order of `old` followed by the cells only `new` has.
/// A cell absent on one side shows as `(none)` there. Fails with a message
/// if either text is not an artifact file.
pub fn diff(old: &str, new: &str) -> Result<Vec<String>, String> {
    let old = cells(old).map_err(|e| format!("OLD: {e}"))?;
    let new = cells(new).map_err(|e| format!("NEW: {e}"))?;
    let index = |cells: &[(Location, String)]| -> BTreeMap<Location, String> {
        cells.iter().cloned().collect()
    };
    let (old_at, new_at) = (index(&old), index(&new));
    let line = |at: &str, from: Option<&str>, to: Option<&str>| {
        format!(
            "{at}: {} → {}",
            from.unwrap_or("(none)"),
            to.unwrap_or("(none)")
        )
    };
    let moved = old.iter().filter_map(|(at, v)| {
        let to = new_at.get(at).map(String::as_str);
        (to != Some(v.as_str())).then(|| line(at, Some(v), to))
    });
    let added = new
        .iter()
        .filter(|(at, _)| !old_at.contains_key(at))
        .map(|(at, v)| line(at, None, Some(v)));
    Ok(moved.chain(added).collect())
}

/// Every cell of an artifact text with its location, in file order.
fn cells(text: &str) -> Result<Vec<(Location, String)>, String> {
    let mut p = Parser {
        s: text.as_bytes(),
        i: 0,
    };
    let mut out = Vec::new();
    p.expect(b'{')?;
    if !p.eat(b'}') {
        loop {
            let name = p.quoted()?;
            p.expect(b':')?;
            if p.eat(b'[') {
                p.rows(&name, &mut out)?;
            } else {
                out.push((name, p.scalar()?));
            }
            if p.eat(b'}') {
                break;
            }
            p.expect(b',')?;
        }
    }
    p.skip_ws();
    if p.i < p.s.len() {
        return Err(format!("trailing text at byte {}", p.i));
    }
    Ok(out)
}

/// A reader for the JSON subset artifacts use: one object whose values are
/// scalars or arrays of flat objects of scalars.
struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.s.get(self.i).is_some_and(u8::is_ascii_whitespace) {
            self.i += 1;
        }
    }

    /// Consumes `b` (after whitespace) if it comes next.
    fn eat(&mut self, b: u8) -> bool {
        self.skip_ws();
        let hit = self.s.get(self.i) == Some(&b);
        self.i += usize::from(hit);
        hit
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if !self.eat(b) {
            return Err(format!("expected `{}` at byte {}", b as char, self.i));
        }
        Ok(())
    }

    /// The rows of table `name`, after its `[`.
    fn rows(&mut self, name: &str, out: &mut Vec<(Location, String)>) -> Result<(), String> {
        if self.eat(b']') {
            return Ok(());
        }
        for row in 0.. {
            self.expect(b'{')?;
            loop {
                let cell = self.quoted()?;
                self.expect(b':')?;
                out.push((format!("{name}[{row}].{cell}"), self.scalar()?));
                if self.eat(b'}') {
                    break;
                }
                self.expect(b',')?;
            }
            if self.eat(b']') {
                break;
            }
            self.expect(b',')?;
        }
        Ok(())
    }

    /// A quoted string's text between the quotes, escapes kept as written
    /// (names are identifiers, and values compare as written).
    fn quoted(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let start = self.i;
        while let Some(&b) = self.s.get(self.i) {
            match b {
                b'"' => {
                    self.i += 1;
                    let inner = self.s.get(start..self.i - 1).unwrap_or_default();
                    return String::from_utf8(inner.to_vec()).map_err(|e| e.to_string());
                }
                b'\\' => self.i += 2,
                _ => self.i += 1,
            }
        }
        Err("unterminated string".to_owned())
    }

    /// A scalar value as written: a quoted string, or a number, `true` or
    /// `false`.
    fn scalar(&mut self) -> Result<String, String> {
        self.skip_ws();
        if self.s.get(self.i) == Some(&b'"') {
            return Ok(format!("\"{}\"", self.quoted()?));
        }
        let start = self.i;
        while self
            .s
            .get(self.i)
            .is_some_and(|b| b.is_ascii_alphanumeric() || b"+-.".contains(b))
        {
            self.i += 1;
        }
        match self.s.get(start..self.i) {
            Some(tok) if !tok.is_empty() => Ok(String::from_utf8_lossy(tok).into_owned()),
            _ => Err(format!("expected a value at byte {start}")),
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;
    use crate::artifact::{Artifact, Cell, Table};

    fn artifact(rows: &[(u64, f64)]) -> String {
        Artifact {
            name: "T",
            description: "a \"quoted\" test",
            params: vec![Cell::exact("scale_factor", 0.5)],
            tables: vec![Table {
                name: "runs",
                rows: rows
                    .iter()
                    .map(|&(n, s)| vec![Cell::int("n", n), Cell::real("total_s", s, 3)])
                    .collect(),
            }],
            summary: vec![Cell::check("ok", true), Cell::text("plan", "XScan")],
        }
        .to_json()
    }

    #[test]
    fn identical_files_diff_clean() {
        let a = artifact(&[(1, 0.25), (2, 0.5)]);
        assert_eq!(diff(&a, &a), Ok(vec![]));
        assert_eq!(cells(&a).unwrap().len(), 2 + 1 + 4 + 2);
    }

    #[test]
    fn a_one_cell_edit_names_that_cell() {
        let old = artifact(&[(1, 0.25), (2, 0.5)]);
        let new = artifact(&[(1, 0.25), (2, 0.625)]);
        assert_eq!(
            diff(&old, &new),
            Ok(vec!["runs[1].total_s: 0.500 → 0.625".to_owned()])
        );
        let edited = old.replace("\"XScan\"", "\"Simple\"");
        assert_eq!(
            diff(&old, &edited),
            Ok(vec!["plan: \"XScan\" → \"Simple\"".to_owned()])
        );
    }

    #[test]
    fn an_added_row_is_reported() {
        let old = artifact(&[(1, 0.25)]);
        let new = artifact(&[(1, 0.25), (7, 1.0)]);
        let want = ["runs[1].n: (none) → 7", "runs[1].total_s: (none) → 1.000"];
        assert_eq!(diff(&old, &new), Ok(want.map(str::to_owned).to_vec()));
        let gone = ["runs[1].n: 7 → (none)", "runs[1].total_s: 1.000 → (none)"];
        assert_eq!(diff(&new, &old), Ok(gone.map(str::to_owned).to_vec()));
    }

    #[test]
    fn a_file_that_is_no_artifact_is_an_error() {
        let a = artifact(&[(1, 0.25)]);
        for bad in ["", "[1]", "{\"a\": }", "{\"a\": 1", &a[..a.len() / 2]] {
            assert!(diff(&a, bad).is_err(), "{bad:?}");
            assert!(diff(bad, &a).is_err(), "{bad:?}");
        }
    }
}
