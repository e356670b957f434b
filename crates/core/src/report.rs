//! ASCII table formatting and structured reporting for the experiment
//! binaries.
//!
//! The table generators in `qsnc-bench` print rows in the same layout as
//! the paper's tables so that EXPERIMENTS.md can be assembled by direct
//! comparison. [`Report`] bundles one binary's tables and notes and emits
//! them uniformly: rendered ASCII on stdout always, and — when
//! `QSNC_TELEMETRY=json` — a combined JSON document (tables + notes + the
//! full telemetry snapshot) in the BENCH_*.json house shape.

use qsnc_telemetry::json::Json;
use std::fmt::Write as _;

/// A simple fixed-layout ASCII table.
#[derive(Debug, Clone, Default)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: impl Into<String>, header: &[&str]) -> Self {
        Table {
            title: title.into(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the cell count differs from the header.
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Returns `true` if the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row.iter()) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "## {}", self.title);
        let line = |widths: &[usize]| {
            let mut s = String::from("+");
            for w in widths {
                s.push_str(&"-".repeat(w + 2));
                s.push('+');
            }
            s
        };
        let fmt_row = |cells: &[String], widths: &[usize]| {
            let mut s = String::from("|");
            for (cell, w) in cells.iter().zip(widths.iter()) {
                let _ = write!(s, " {cell:w$} |", w = w);
            }
            s
        };
        let _ = writeln!(out, "{}", line(&widths));
        let _ = writeln!(out, "{}", fmt_row(&self.header, &widths));
        let _ = writeln!(out, "{}", line(&widths));
        for row in &self.rows {
            let _ = writeln!(out, "{}", fmt_row(row, &widths));
        }
        let _ = writeln!(out, "{}", line(&widths));
        out
    }
}

impl Table {
    /// The table's title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// Column headers.
    pub fn header(&self) -> &[String] {
        &self.header
    }

    /// Data rows.
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    /// Converts the table to a JSON object: each row becomes an object
    /// keyed by the column headers, matching the row-array sections of
    /// BENCH_*.json.
    pub fn to_json(&self) -> Json {
        let rows = self
            .rows
            .iter()
            .map(|row| {
                Json::Obj(
                    self.header
                        .iter()
                        .zip(row.iter())
                        .map(|(h, c)| (h.clone(), Json::Str(c.clone())))
                        .collect(),
                )
            })
            .collect();
        Json::obj(vec![
            ("title", Json::Str(self.title.clone())),
            ("rows", Json::Arr(rows)),
        ])
    }

    /// Renders the table as CSV (header + rows), quoting cells that
    /// contain commas or quotes.
    pub fn to_csv(&self) -> String {
        fn field(cell: &str) -> String {
            if cell.contains(',') || cell.contains('"') || cell.contains('\n') {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_string()
            }
        }
        let mut out = String::new();
        let header: Vec<String> = self.header.iter().map(|c| field(c)).collect();
        out.push_str(&header.join(","));
        out.push('\n');
        for row in &self.rows {
            let cells: Vec<String> = row.iter().map(|c| field(c)).collect();
            out.push_str(&cells.join(","));
            out.push('\n');
        }
        out
    }
}

/// One experiment binary's complete output: titled tables plus free-form
/// notes, emitted consistently across all of `qsnc-bench`.
///
/// [`Report::emit`] prints every table and note to stdout. When telemetry
/// runs in JSON mode (`QSNC_TELEMETRY=json`), it additionally produces a
/// JSON document combining the tables, the notes, and the full telemetry
/// snapshot — written to the path in `QSNC_REPORT_JSON` if set, otherwise
/// appended to stdout.
#[derive(Debug, Clone, Default)]
pub struct Report {
    title: String,
    tables: Vec<Table>,
    notes: Vec<String>,
}

impl Report {
    /// Creates an empty report.
    pub fn new(title: impl Into<String>) -> Self {
        Report {
            title: title.into(),
            ..Report::default()
        }
    }

    /// Appends a finished table.
    pub fn table(&mut self, table: Table) -> &mut Self {
        self.tables.push(table);
        self
    }

    /// Appends a free-form note line (printed after the tables).
    pub fn note(&mut self, note: impl Into<String>) -> &mut Self {
        self.notes.push(note.into());
        self
    }

    /// The report's tables.
    pub fn tables(&self) -> &[Table] {
        &self.tables
    }

    /// The report's notes.
    pub fn notes(&self) -> &[String] {
        &self.notes
    }

    /// Renders every table and note as the ASCII block [`Report::emit`]
    /// prints.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for table in &self.tables {
            out.push_str(&table.render());
            out.push('\n');
        }
        for note in &self.notes {
            let _ = writeln!(out, "{note}");
        }
        out
    }

    /// Combined JSON document: title, tables, notes, and the current
    /// telemetry snapshot.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("title", Json::Str(self.title.clone())),
            (
                "tables",
                Json::Arr(self.tables.iter().map(Table::to_json).collect()),
            ),
            (
                "notes",
                Json::Arr(self.notes.iter().map(|n| Json::Str(n.clone())).collect()),
            ),
            ("telemetry", qsnc_telemetry::snapshot().to_json()),
        ])
    }

    /// Prints the report. In telemetry JSON mode the combined JSON document
    /// is written to `$QSNC_REPORT_JSON` (or stdout when unset); in
    /// recording mode an ASCII telemetry summary is appended.
    pub fn emit(&self) {
        print!("{}", self.render());
        match qsnc_telemetry::mode() {
            qsnc_telemetry::TelemetryMode::Json => {
                let doc = self.to_json().render_pretty(2);
                match std::env::var("QSNC_REPORT_JSON") {
                    Ok(path) if !path.is_empty() => {
                        if let Err(e) = std::fs::write(&path, &doc) {
                            eprintln!("failed to write {path}: {e}");
                        } else {
                            eprintln!("report JSON written to {path}");
                        }
                    }
                    _ => println!("{doc}"),
                }
            }
            qsnc_telemetry::TelemetryMode::Record => {
                for table in telemetry_summary_tables(&qsnc_telemetry::snapshot()) {
                    print!("\n{}", table.render());
                }
            }
            qsnc_telemetry::TelemetryMode::Off => {}
        }
    }
}

/// Renders a telemetry snapshot as ASCII summary tables (spans sorted by
/// total time, then counters, then histograms). Empty sections are omitted.
pub fn telemetry_summary_tables(snap: &qsnc_telemetry::Snapshot) -> Vec<Table> {
    let mut tables = Vec::new();
    if !snap.spans.is_empty() {
        let mut spans = snap.spans.clone();
        spans.sort_by_key(|s| std::cmp::Reverse(s.total_ns));
        let mut t = Table::new(
            "Telemetry: spans",
            &["span", "count", "total ms", "mean us", "max us"],
        );
        for s in &spans {
            t.row(&[
                s.path.clone(),
                s.count.to_string(),
                format!("{:.3}", s.total_ns as f64 / 1e6),
                format!("{:.1}", s.total_ns as f64 / s.count.max(1) as f64 / 1e3),
                format!("{:.1}", s.max_ns as f64 / 1e3),
            ]);
        }
        tables.push(t);
    }
    if !snap.counters.is_empty() {
        let mut t = Table::new("Telemetry: counters", &["counter", "value"]);
        for (name, value) in &snap.counters {
            t.row(&[name.clone(), value.to_string()]);
        }
        tables.push(t);
    }
    if !snap.histograms.is_empty() {
        let mut t = Table::new(
            "Telemetry: histograms",
            &["histogram", "count", "mean", "buckets"],
        );
        for h in &snap.histograms {
            let mean = if h.count == 0 { 0.0 } else { h.sum / h.count as f64 };
            let buckets = h
                .buckets
                .iter()
                .map(|b| b.to_string())
                .collect::<Vec<_>>()
                .join("/");
            t.row(&[
                h.name.clone(),
                h.count.to_string(),
                format!("{mean:.4}"),
                buckets,
            ]);
        }
        tables.push(t);
    }
    tables
}

/// Formats an accuracy as the paper does: `"98.16%"`.
pub fn pct(x: f32) -> String {
    format!("{:.2}%", x * 100.0)
}

/// Formats an accuracy delta as the paper does: `"-0.02%"`.
pub fn pct_delta(ours: f32, reference: f32) -> String {
    format!("{:+.2}%", (ours - reference) * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new("Demo", &["Model", "Acc"]);
        t.row(&["Lenet".into(), "98.16%".into()]);
        t.row(&["A-very-long-name".into(), "85.35%".into()]);
        let s = t.render();
        assert!(s.contains("## Demo"));
        assert!(s.contains("| Lenet "));
        // All rendered lines after the title have the same width.
        let lines: Vec<&str> = s.lines().skip(1).collect();
        assert!(lines.windows(2).all(|w| w[0].len() == w[1].len()));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_checked() {
        let mut t = Table::new("Demo", &["A", "B"]);
        t.row(&["only-one".into()]);
    }

    #[test]
    fn csv_quotes_awkward_cells() {
        let mut t = Table::new("Demo", &["A", "B"]);
        t.row(&["plain".into(), "with,comma".into()]);
        t.row(&["with\"quote".into(), "x".into()]);
        let csv = t.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "A,B");
        assert_eq!(lines[1], "plain,\"with,comma\"");
        assert_eq!(lines[2], "\"with\"\"quote\",x");
    }

    #[test]
    fn pct_formatting() {
        assert_eq!(pct(0.9816), "98.16%");
        assert_eq!(pct_delta(0.9814, 0.9816), "-0.02%");
        assert_eq!(pct_delta(0.99, 0.98), "+1.00%");
    }

    #[test]
    fn table_json_keys_rows_by_header() {
        let mut t = Table::new("T", &["Model", "Acc"]);
        t.row(&["lenet".into(), "98.16%".into()]);
        let j = t.to_json();
        let rows = j.get("rows").and_then(Json::as_array).unwrap();
        assert_eq!(rows[0].get("Model").and_then(Json::as_str), Some("lenet"));
        assert_eq!(rows[0].get("Acc").and_then(Json::as_str), Some("98.16%"));
    }

    #[test]
    fn report_renders_tables_then_notes_and_parses_as_json() {
        let mut r = Report::new("demo");
        let mut t = Table::new("T", &["A"]);
        t.row(&["x".into()]);
        r.table(t).note("note line");
        let text = r.render();
        assert!(text.contains("## T"));
        assert!(text.ends_with("note line\n"));
        let doc = r.to_json().render_pretty(2);
        let parsed = Json::parse(&doc).unwrap();
        for key in ["title", "tables", "notes", "telemetry"] {
            assert!(parsed.get(key).is_some(), "missing {key}");
        }
    }

    #[test]
    fn telemetry_summary_renders_recorded_data() {
        let _guard = qsnc_telemetry::testing::lock();
        qsnc_telemetry::set_mode(qsnc_telemetry::TelemetryMode::Record);
        qsnc_telemetry::reset();
        qsnc_telemetry::counter_add("demo.counter", 3);
        qsnc_telemetry::observe("demo.hist", 0.4, &[0.5, 1.0]);
        {
            let _s = qsnc_telemetry::start_span("demo.span");
        }
        let tables = telemetry_summary_tables(&qsnc_telemetry::snapshot());
        qsnc_telemetry::reset();
        qsnc_telemetry::set_mode(qsnc_telemetry::TelemetryMode::Off);
        assert_eq!(tables.len(), 3);
        let all: String = tables.iter().map(Table::render).collect();
        assert!(all.contains("demo.span"));
        assert!(all.contains("demo.counter"));
        assert!(all.contains("demo.hist"));
    }

    #[test]
    fn empty_snapshot_produces_no_summary_tables() {
        assert!(telemetry_summary_tables(&qsnc_telemetry::Snapshot::default()).is_empty());
    }
}
