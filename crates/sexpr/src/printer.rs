//! A pretty printer for [`Sexpr`] data.
//!
//! Curare is a source-to-source transformer: its final stage produces
//! Lisp text again (paper §4), so readable output matters. The printer
//! uses a simple fits-on-one-line / break-after-head layout that
//! renders the paper's figures in their familiar shape.

use crate::datum::Sexpr;

/// Default maximum line width for [`pretty`].
pub const DEFAULT_WIDTH: usize = 72;

/// Heads whose first `n` arguments stay on the head line when broken
/// (`defun f (args)` then body lines, `let (bindings)` then body...).
fn hang_args(head: &str) -> usize {
    match head {
        "defun" => 2,
        "let" | "let*" | "lambda" | "when" | "unless" | "dolist" | "dotimes" => 1,
        "if" | "setq" | "setf" | "while" => 1,
        _ => 0,
    }
}

/// Pretty-print with the default width.
pub fn pretty(e: &Sexpr) -> String {
    pretty_width(e, DEFAULT_WIDTH)
}

/// Pretty-print `e`, breaking lines that would exceed `width` columns.
pub fn pretty_width(e: &Sexpr, width: usize) -> String {
    let mut out = String::new();
    emit(e, 0, width, &mut out);
    out
}

fn indent(out: &mut String, n: usize) {
    out.push('\n');
    out.extend(std::iter::repeat_n(' ', n));
}

/// Print `e` starting at column `col`. Returns the byte length of its
/// one-line form, broken or not: the column after a hanging argument
/// is reckoned by it, in bytes like the fit test.
fn emit(e: &Sexpr, col: usize, width: usize, out: &mut String) -> usize {
    let start = out.len();
    let items = match e {
        Sexpr::List(items) if !items.is_empty() => items,
        _ => {
            e.write(out);
            return out.len() - start;
        }
    };
    if let Some(len) = e.flat_len_within(width.saturating_sub(col)) {
        e.write(out);
        return len;
    }
    // The column of the `(` about to be written, in characters since
    // the last newline: what body indentation is relative to.
    let open_col = out[out.rfind('\n').map_or(0, |nl| nl + 1)..].chars().count();
    out.push('(');
    // Emit the head (and any hanging args) on the first line. `flat`
    // is the one-line length so far: the `(`, the head, ` item` each.
    items[0].write(out);
    let mut flat = out.len() - start;
    let hang = match items[0].as_symbol() {
        Some(h) => hang_args(h).min(items.len() - 1),
        None => 0,
    };
    for it in &items[1..=hang] {
        out.push(' ');
        flat += 1 + emit(it, col + flat + 1, width, out);
    }
    let body_indent = if hang > 0 || items.len() == 1 {
        // Body-style indent: two spaces past the open paren.
        open_col + 2
    } else {
        // Argument-style indent: align under the first argument.
        col + flat + 1
    };
    for it in &items[hang + 1..] {
        indent(out, body_indent);
        flat += 1 + emit(it, body_indent, width, out);
    }
    out.push(')');
    if items.len() == 2 && items[0].is_symbol("quote") {
        // Written `'x`: seven bytes shorter than `(quote x)`.
        flat + 1 - 7
    } else {
        flat + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_one;

    #[test]
    fn short_forms_stay_flat() {
        let e = parse_one("(f 1 2)").unwrap();
        assert_eq!(pretty(&e), "(f 1 2)");
    }

    #[test]
    fn long_forms_break() {
        let e = parse_one(
            "(defun f (l) (cond ((null l) nil) ((null (cdr l)) (f (cdr l))) (t (setf (cadr l) (+ (car l) (cadr l))) (f (cdr l)))))",
        )
        .unwrap();
        let s = pretty_width(&e, 40);
        assert!(s.lines().count() > 1, "{s}");
        for line in s.lines() {
            assert!(line.len() <= 60, "line too long: {line}");
        }
        // Re-reading the pretty form gives back the same datum.
        assert_eq!(parse_one(&s).unwrap(), e);
    }

    #[test]
    fn pretty_round_trips_paper_figures() {
        for src in [
            "(defun f (l) (when l (print (car l)) (f (cdr l))))",
            "(defun remq (obj lst) (cond ((null lst) nil) ((eq obj (car lst)) (remq obj (cdr lst))) (t (cons (car lst) (remq obj (cdr lst))))))",
        ] {
            let e = parse_one(src).unwrap();
            for w in [20, 40, 72, 200] {
                let s = pretty_width(&e, w);
                assert_eq!(parse_one(&s).unwrap(), e, "width {w}:\n{s}");
            }
        }
    }

    #[test]
    fn atoms_print_plainly() {
        assert_eq!(pretty(&Sexpr::Int(7)), "7");
        assert_eq!(pretty(&Sexpr::sym("x")), "x");
    }

    /// The printer as it was before it measured with a budget and
    /// reckoned indentation from the `(` it wrote: every subtree
    /// rendered to measure it, every broken list rescanning the whole
    /// output for its open paren. The layout it produces is the
    /// contract; `pretty_width` must match it byte for byte.
    mod reference {
        use super::super::hang_args;
        use crate::datum::Sexpr;

        pub fn pretty_width(e: &Sexpr, width: usize) -> String {
            let mut out = String::new();
            emit(e, 0, width, &mut out);
            out
        }

        fn flat_len(e: &Sexpr) -> usize {
            let mut s = String::new();
            e.write(&mut s);
            s.len()
        }

        fn indent(out: &mut String, n: usize) {
            out.push('\n');
            for _ in 0..n {
                out.push(' ');
            }
        }

        fn emit(e: &Sexpr, col: usize, width: usize, out: &mut String) {
            match e {
                Sexpr::List(items) if !items.is_empty() => {
                    if col + flat_len(e) <= width {
                        e.write(out);
                        return;
                    }
                    out.push('(');
                    let mut col = col + 1;
                    let hang = match items[0].as_symbol() {
                        Some(h) => hang_args(h).min(items.len().saturating_sub(1)),
                        None => 0,
                    };
                    items[0].write(out);
                    col += flat_len(&items[0]);
                    for it in &items[1..=hang] {
                        out.push(' ');
                        col += 1;
                        emit(it, col, width, out);
                        col += flat_len(it);
                    }
                    let body_indent =
                        if hang > 0 || items.len() == 1 { col_of_open(out) + 2 } else { col + 1 };
                    for it in &items[hang + 1..] {
                        indent(out, body_indent);
                        emit(it, body_indent, width, out);
                    }
                    out.push(')');
                }
                _ => e.write(out),
            }
        }

        fn col_of_open(out: &str) -> usize {
            let mut in_str = false;
            let mut esc = false;
            let mut col = 0usize;
            let mut open_cols: Vec<usize> = Vec::new();
            for c in out.chars() {
                if esc {
                    esc = false;
                    col += 1;
                    continue;
                }
                match c {
                    '\\' if in_str => esc = true,
                    '"' => in_str = !in_str,
                    '(' if !in_str => open_cols.push(col),
                    ')' if !in_str => {
                        open_cols.pop();
                    }
                    '\n' => {
                        col = 0;
                        continue;
                    }
                    _ => {}
                }
                col += 1;
            }
            open_cols.last().copied().unwrap_or(0)
        }
    }

    /// Seeded data the reader can read back: symbols (hanging heads,
    /// multibyte names), integers at both ends, floats, strings holding
    /// `(`, `"`, `\`, newlines and multibyte characters, quote forms,
    /// empty, nested and dotted lists.
    struct DataGen(curare_testkit::Rng);

    impl DataGen {
        fn below(&mut self, n: usize) -> usize {
            self.0.below(n)
        }

        fn pick<'a>(&mut self, of: &[&'a str]) -> &'a str {
            of[self.below(of.len())]
        }

        fn atom(&mut self) -> Sexpr {
            const SYMS: [&str; 14] = [
                "defun",
                "let",
                "if",
                "when",
                "setq",
                "while",
                "cond",
                "f",
                "car",
                "l",
                "λx",
                "long-symbol-name",
                "1+",
                "café-ünïcode",
            ];
            const STRS: [&str; 8] =
                ["", "a(b", "say \"hi\"", "back\\slash", "two\nlines", "tab\there", "λ→日本", ")("];
            match self.below(6) {
                0 | 1 => Sexpr::sym(self.pick(&SYMS)),
                2 => Sexpr::Int([0, 7, -42, 1234567, i64::MIN, i64::MAX][self.below(6)]),
                3 => Sexpr::Float([0.5, -2.25, 1e300, 3.0][self.below(4)]),
                _ => Sexpr::Str(self.pick(&STRS).to_string()),
            }
        }

        fn datum(&mut self, depth: usize) -> Sexpr {
            if depth == 0 || self.below(4) == 0 {
                return self.atom();
            }
            match self.below(8) {
                0 => Sexpr::nil(),
                1 => Sexpr::list(vec![Sexpr::sym("quote"), self.datum(depth - 1)]),
                2 => {
                    let items = (0..1 + self.below(3)).map(|_| self.datum(depth - 1)).collect();
                    Sexpr::Dotted(items, Box::new(self.atom()))
                }
                3 | 4 => {
                    // A head that keeps arguments on its line: what
                    // follows it there (multibyte names, broken lists)
                    // decides the columns below.
                    let head = self.pick(&["defun", "let", "when", "if", "setq"]);
                    let mut items = vec![Sexpr::sym(head)];
                    items.extend((0..1 + self.below(4)).map(|_| self.datum(depth - 1)));
                    Sexpr::list(items)
                }
                _ => Sexpr::list((0..1 + self.below(5)).map(|_| self.datum(depth - 1)).collect()),
            }
        }
    }

    const WIDTHS: [usize; 5] = [8, 20, 40, 72, 200];

    #[test]
    fn the_layout_matches_the_reference_printer_on_generated_data() {
        let mut gen = DataGen(curare_testkit::Rng::new(72));
        for case in 0..800 {
            let x = gen.datum(5);
            for w in WIDTHS {
                let text = pretty_width(&x, w);
                assert_eq!(text, reference::pretty_width(&x, w), "case {case}, width {w}");
                assert_eq!(
                    crate::parse_all(&text).unwrap(),
                    std::slice::from_ref(&x),
                    "case {case}:\n{text}"
                );
            }
        }
    }

    #[test]
    fn the_layout_matches_the_reference_printer_on_the_shipped_programs() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let mut forms = 0;
        for dir in ["examples/lisp", "examples/lisp/fixtures", "benchmark/programs"] {
            for entry in std::fs::read_dir(root.join(dir)).unwrap() {
                let path = entry.unwrap().path();
                if path.extension().is_none_or(|x| x != "lisp") {
                    continue;
                }
                for x in crate::parse_all(&std::fs::read_to_string(&path).unwrap()).unwrap() {
                    for w in WIDTHS {
                        let text = pretty_width(&x, w);
                        assert_eq!(text, reference::pretty_width(&x, w), "{}", path.display());
                    }
                    forms += 1;
                }
            }
        }
        assert!(forms > 40, "{forms} forms");
    }
}
