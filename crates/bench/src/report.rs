//! Table formatting for the figure harness binaries.

/// One row of a figure's data series.
#[derive(Debug, Clone)]
pub struct Row {
    /// The x-axis value (concurrency, cores, word length, policy...).
    pub x: String,
    /// The system / series label.
    pub series: String,
    /// The measured value.
    pub value: f64,
    /// The measurement unit.
    pub unit: String,
}

impl Row {
    /// Creates a row.
    pub fn new(
        x: impl ToString,
        series: impl Into<String>,
        value: f64,
        unit: impl Into<String>,
    ) -> Self {
        Row {
            x: x.to_string(),
            series: series.into(),
            value,
            unit: unit.into(),
        }
    }
}

/// Serialises rows as a JSON array (hand-rolled: the offline build has no
/// serde, see DESIGN.md §7; the schema is four fixed fields per row).
pub fn rows_to_json(rows: &[Row]) -> String {
    let mut json = String::from("[");
    for (i, row) in rows.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        json.push_str(&format!(
            "{{\"x\":{},\"series\":{},\"value\":{},\"unit\":{}}}",
            json_string(&row.x),
            json_string(&row.series),
            json_number(row.value),
            json_string(&row.unit),
        ));
    }
    json.push(']');
    json
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_number(v: f64) -> String {
    // JSON has no NaN/Infinity; null is the conventional stand-in.
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Prints a title, the rows as an aligned table, and a JSON dump (one line)
/// for downstream processing.
pub fn print_table(title: &str, rows: &[Row]) {
    println!("\n== {title} ==");
    println!(
        "{:<14} {:<22} {:>14} {:<10}",
        "x", "series", "value", "unit"
    );
    for row in rows {
        println!(
            "{:<14} {:<22} {:>14.1} {:<10}",
            row.x, row.series, row.value, row.unit
        );
    }
    println!("JSON: {}", rows_to_json(rows));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_serialise() {
        let rows = vec![Row::new(100, "flick-kernel", 12345.6, "req/s")];
        let json = rows_to_json(&rows);
        assert!(json.contains("flick-kernel"));
        assert_eq!(
            json,
            r#"[{"x":"100","series":"flick-kernel","value":12345.6,"unit":"req/s"}]"#
        );
        print_table("test", &rows);
    }

    #[test]
    fn json_escapes_and_non_finite() {
        let rows = vec![Row::new("a\"b\n", "s\\t", f64::NAN, "u")];
        assert_eq!(
            rows_to_json(&rows),
            r#"[{"x":"a\"b\n","series":"s\\t","value":null,"unit":"u"}]"#
        );
    }
}
