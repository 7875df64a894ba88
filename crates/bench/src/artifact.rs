//! The one artifact type of every `report` output: the paper's evaluation
//! (`PAPER`, `ABLATIONS`, `EXTENSIONS`) and the substrate harnesses
//! (`CHAOS`, `OVERLOAD`).
//!
//! Each experiment returns an [`Artifact`]: a name, a description, parameters,
//! one or more tables of rows, and trailing summary cells. Every cell is
//! written once — name, value, number format — and every value is a
//! setting, a simulated number or an outcome, so an artifact repeats byte
//! for byte between runs. A cell holding [`Value::Check`] is a named
//! boolean that must hold; the `report` binary prints, checks and writes
//! every artifact through [`Artifact::render`], [`Artifact::failed_checks`]
//! and [`Artifact::to_json`].

/// A cell's value together with its number format.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A count.
    Int(u64),
    /// A real number with a fixed number of decimals (`None`: shortest form).
    Real(f64, Option<usize>),
    /// A string.
    Text(String),
    /// A reported boolean.
    Flag(bool),
    /// A boolean that must hold.
    Check(bool),
}

/// One named value.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// JSON key and table header.
    pub name: &'static str,
    /// The value and its format.
    pub value: Value,
}

impl Cell {
    fn new(name: &'static str, value: Value) -> Self {
        Self { name, value }
    }

    /// A count.
    pub fn int(name: &'static str, v: u64) -> Self {
        Self::new(name, Value::Int(v))
    }

    /// A real number printed with `decimals` decimals.
    pub fn real(name: &'static str, v: f64, decimals: usize) -> Self {
        Self::new(name, Value::Real(v, Some(decimals)))
    }

    /// A real parameter printed in its shortest form (e.g. a scale factor).
    pub fn param(name: &'static str, v: f64) -> Self {
        Self::new(name, Value::Real(v, None))
    }

    /// A string.
    pub fn text(name: &'static str, v: impl Into<String>) -> Self {
        Self::new(name, Value::Text(v.into()))
    }

    /// A reported boolean.
    pub fn flag(name: &'static str, v: bool) -> Self {
        Self::new(name, Value::Flag(v))
    }

    /// A boolean that must hold.
    pub fn check(name: &'static str, v: bool) -> Self {
        Self::new(name, Value::Check(v))
    }

    /// The value as printed, strings unquoted.
    fn shown(&self) -> String {
        match &self.value {
            Value::Int(v) => v.to_string(),
            Value::Real(v, Some(d)) => format!("{v:.d$}"),
            Value::Real(v, None) => v.to_string(),
            Value::Text(s) => s.clone(),
            Value::Flag(b) | Value::Check(b) => b.to_string(),
        }
    }

    fn json(&self) -> String {
        let value = match &self.value {
            Value::Text(s) => quote(s),
            _ => self.shown(),
        };
        format!("{}: {value}", quote(self.name))
    }
}

fn quote(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// The numeric value of the cell `name` in `row`; NaN when it is absent or
/// not a number, so any comparison with it fails.
pub fn num(row: &[Cell], name: &str) -> f64 {
    match row.iter().find(|c| c.name == name).map(|c| &c.value) {
        Some(Value::Int(v)) => *v as f64,
        Some(Value::Real(v, _)) => *v,
        _ => f64::NAN,
    }
}

/// A named list of rows; each row is one JSON object.
#[derive(Debug, Clone)]
pub struct Table {
    /// JSON key of the table.
    pub name: &'static str,
    /// Rows of cells, every row with the same names in the same order.
    pub rows: Vec<Vec<Cell>>,
}

/// One experiment's result: what `report` prints, checks and writes as
/// `<name>.json`.
#[derive(Debug, Clone)]
pub struct Artifact {
    /// Artifact name and file stem, e.g. `PAPER` or `CHAOS`.
    pub name: &'static str,
    /// One-sentence description of what is measured.
    pub description: &'static str,
    /// Configuration the experiment ran with.
    pub params: Vec<Cell>,
    /// Measured tables.
    pub tables: Vec<Table>,
    /// Batch-level values and checks, after the tables.
    pub summary: Vec<Cell>,
}

impl Artifact {
    /// Every check with where it sits (`name` or `table[row].name`) and
    /// whether it holds.
    pub fn checks(&self) -> Vec<(String, bool)> {
        let rows = self.tables.iter().flat_map(|t| {
            t.rows.iter().enumerate().flat_map(move |(i, row)| {
                row.iter()
                    .map(move |c| (format!("{}[{i}].{}", t.name, c.name), c))
            })
        });
        let top = self
            .params
            .iter()
            .chain(&self.summary)
            .map(|c| (c.name.to_owned(), c));
        top.chain(rows)
            .filter_map(|(at, c)| match c.value {
                Value::Check(holds) => Some((at, holds)),
                _ => None,
            })
            .collect()
    }

    /// The checks that do not hold.
    pub fn failed_checks(&self) -> Vec<String> {
        self.checks()
            .into_iter()
            .filter(|(_, holds)| !holds)
            .map(|(at, _)| at)
            .collect()
    }

    /// The artifact as JSON: name, description, parameters, one array per
    /// table (one row object per line), then the summary.
    pub fn to_json(&self) -> String {
        let mut entries = vec![
            format!("\"artifact\": {}", quote(self.name)),
            format!("\"description\": {}", quote(self.description)),
        ];
        entries.extend(self.params.iter().map(Cell::json));
        for t in &self.tables {
            let rows: Vec<String> = t
                .rows
                .iter()
                .map(|row| {
                    let cells: Vec<String> = row.iter().map(Cell::json).collect();
                    format!("    {{{}}}", cells.join(", "))
                })
                .collect();
            entries.push(format!("{}: [\n{}\n  ]", quote(t.name), rows.join(",\n")));
        }
        entries.extend(self.summary.iter().map(Cell::json));
        format!("{{\n  {}\n}}\n", entries.join(",\n  "))
    }

    /// The artifact as plain text: a headline, the parameters, one
    /// fixed-width table per table, then the summary.
    pub fn render(&self) -> String {
        let mut out = format!("== {}: {} ==\n", self.name, self.description);
        for c in &self.params {
            out.push_str(&format!("   {}: {}\n", c.name, c.shown()));
        }
        for t in &self.tables {
            let Some(first) = t.rows.first() else {
                continue;
            };
            let headers: Vec<&str> = first.iter().map(|c| c.name).collect();
            let rows: Vec<Vec<String>> = t
                .rows
                .iter()
                .map(|row| row.iter().map(Cell::shown).collect())
                .collect();
            out.push_str(&format!("-- {} --\n{}", t.name, render(&headers, &rows)));
        }
        for c in &self.summary {
            out.push_str(&format!("{}: {}\n", c.name, c.shown()));
        }
        out
    }
}

/// Renders a fixed-width table: header plus rows of equal arity.
fn render(headers: &[&str], rows: &[Vec<String>]) -> String {
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), cols, "ragged table row");
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let line = |out: &mut String, cells: &[String]| {
        for (i, cell) in cells.iter().enumerate() {
            if i > 0 {
                out.push_str("  ");
            }
            out.push_str(&format!("{:>width$}", cell, width = widths[i]));
        }
        out.push('\n');
    };
    line(
        &mut out,
        &headers.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
    );
    let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
    out.push_str(&"-".repeat(total));
    out.push('\n');
    for row in rows {
        line(&mut out, row);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Artifact {
        let row = |depth: u64, agree: bool| {
            vec![
                Cell::int("depth", depth),
                Cell::real("sim_s", 1.23456, 3),
                Cell::text("method", "XScan"),
                Cell::check("agree", agree),
            ]
        };
        Artifact {
            name: "BENCH_X",
            description: "a \"quoted\" sample",
            params: vec![Cell::param("engine_scale_factor", 0.25)],
            tables: vec![Table {
                name: "rows",
                rows: vec![row(1, true), row(8, false)],
            }],
            summary: vec![
                Cell::flag("fast_enough", true),
                Cell::check("all_agree", false),
            ],
        }
    }

    #[test]
    fn emit_json_is_wellformed_enough() {
        let json = sample().to_json();
        let want = "{\n  \"artifact\": \"BENCH_X\",\n  \
                    \"description\": \"a \\\"quoted\\\" sample\",\n  \
                    \"engine_scale_factor\": 0.25,\n  \
                    \"rows\": [\n    \
                    {\"depth\": 1, \"sim_s\": 1.235, \"method\": \"XScan\", \"agree\": true},\n    \
                    {\"depth\": 8, \"sim_s\": 1.235, \"method\": \"XScan\", \"agree\": false}\n  \
                    ],\n  \
                    \"fast_enough\": true,\n  \
                    \"all_agree\": false\n}\n";
        assert_eq!(json, want);
    }

    #[test]
    fn checks_are_located_and_num_reads_only_numbers() {
        let a = sample();
        assert_eq!(a.checks().len(), 3, "flags are not checks");
        assert_eq!(a.failed_checks(), ["all_agree", "rows[1].agree"]);
        let text = a.render();
        assert!(text.starts_with("== BENCH_X: "));
        assert!(text.contains("-- rows --") && text.contains("all_agree: false"));
        let row = &a.tables[0].rows[0];
        assert_eq!(num(row, "depth"), 1.0);
        assert_eq!(num(row, "sim_s"), 1.23456);
        assert!(num(row, "method").is_nan());
        assert!(num(row, "absent").is_nan());
    }

    #[test]
    fn renders_aligned() {
        let t = render(
            &["sf", "simple"],
            &[
                vec!["0.1".into(), "1.234".into()],
                vec!["1".into(), "10.5".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("sf"));
        assert!(lines[1].starts_with('-'));
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_rows_panic() {
        render(&["a", "b"], &[vec!["1".into()]]);
    }
}
