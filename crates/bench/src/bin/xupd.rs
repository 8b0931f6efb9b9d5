//! `xupd` — label, inspect and query an XML file from the command line.
//!
//! ```text
//! xupd <file.xml> labels  [--scheme NAME]          print every node's label
//! xupd <file.xml> query   <XPATH> [--scheme NAME]  evaluate an XPath subset query
//! xupd <file.xml> table                            print the Figure-2-style encoding table
//! xupd <file.xml> schemes                          list available schemes
//! xupd <file.xml> flux-check <program.flux>        check a flux update program
//! ```
//!
//! The default scheme is QED (persistent + overflow-free — the safe
//! choice §5.2's framework would recommend for a general repository).
//!
//! Scheme lookup goes through the object-safe registries
//! ([`xupd_schemes::registry()`] for labelling sessions,
//! [`xupd_encoding::document_registry`] for encoded documents), so the
//! CLI roster can never drift from the library roster.

use std::process::ExitCode;
use xupd_encoding::figure2::{figure2_table, render_figure2};
use xupd_encoding::{document_registry, parse_xpath};
use xupd_framework::{PreorderIndex, ShadowScheme};
use xupd_xmldom::{parse, NodeKind, XmlTree};

fn usage() -> ExitCode {
    eprintln!(
        "usage: xupd <file.xml> <labels|query|table|schemes|flux-check> [XPATH|PROGRAM] [--scheme NAME]\n\
         default scheme: QED. `xupd <file> schemes` lists all."
    );
    ExitCode::from(2)
}

/// Statically check a flux program against the document, lint-style:
/// one `line:col: CODE message` per finding. The deeper compile stage
/// runs only when the static pass is clean, surfacing strict-match
/// (F010–F012) errors without ever mutating the tree.
fn flux_check(tree: &XmlTree, program_file: &str) -> ExitCode {
    let src = match std::fs::read_to_string(program_file) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {program_file}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let index = match PreorderIndex::encode(ShadowScheme::default(), tree) {
        Ok(index) => index,
        Err(e) => {
            eprintln!("cannot index the document: {e}");
            return ExitCode::FAILURE;
        }
    };
    let diags = match xupd_flux::FluxProgram::parse(&src) {
        Ok(p) => {
            let mut ds = p.check();
            if ds.is_empty() {
                if let Err(compile) = p.compile(tree, &index) {
                    ds = compile;
                }
            }
            ds
        }
        Err(ds) => ds,
    };
    if diags.is_empty() {
        println!("{program_file}: ok");
        return ExitCode::SUCCESS;
    }
    for d in &diags {
        println!("{program_file}:{}", d.render());
    }
    ExitCode::FAILURE
}

fn print_schemes() {
    for entry in xupd_schemes::registry() {
        let d = &entry.descriptor;
        println!(
            "  {:<18} {:<8} {:<9} {}",
            d.name,
            d.order.to_string(),
            d.encoding.to_string(),
            if d.in_figure7 {
                "Figure 7"
            } else {
                "extension"
            }
        );
    }
}

fn print_labels(tree: &XmlTree, wanted: &str) -> bool {
    let Some(entry) = xupd_schemes::registry()
        .into_iter()
        .find(|e| e.name() == wanted)
    else {
        return false;
    };
    let mut session = entry.session();
    session.label_tree(tree).unwrap();
    for n in tree.ids_in_doc_order() {
        let what = match tree.kind(n) {
            NodeKind::Document => "#document".to_string(),
            NodeKind::Element { name } => format!("<{name}>"),
            NodeKind::Attribute { name, .. } => format!("@{name}"),
            NodeKind::Text { .. } => "#text".to_string(),
            NodeKind::Comment { .. } => "#comment".to_string(),
            NodeKind::Pi { target, .. } => format!("<?{target}?>"),
        };
        println!(
            "{}{:<24} {}",
            "  ".repeat(tree.depth(n) as usize),
            what,
            session.label_display(n).unwrap()
        );
    }
    true
}

fn print_query(tree: &XmlTree, wanted: &str, query: &str) -> bool {
    let Some(entry) = document_registry().into_iter().find(|e| e.name() == wanted) else {
        return false;
    };
    let expr = match parse_xpath(query) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("{e}");
            return true;
        }
    };
    let doc = (entry.encode)(tree).unwrap();
    let hits = doc.evaluate(&expr);
    println!("{} hit(s)", hits.len());
    for h in hits {
        let kind = doc.kind(h);
        println!(
            "  {:<12} {:<16} {}",
            kind.type_tag(),
            kind.name().unwrap_or(""),
            doc.string_value(h).chars().take(60).collect::<String>()
        );
    }
    true
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.len() < 2 {
        return usage();
    }
    let file = &args[0];
    let mut wanted = "QED".to_string();
    if let Some(i) = args.iter().position(|a| a == "--scheme") {
        match args.get(i + 1) {
            Some(name) => wanted = name.clone(),
            None => return usage(),
        }
    }

    // Validate the command shape before touching the file.
    let query = match args[1].as_str() {
        "labels" | "table" | "schemes" => None,
        "query" | "flux-check" => match args.get(2) {
            Some(q) if !q.starts_with("--") => Some(q.clone()),
            _ => return usage(),
        },
        _ => return usage(),
    };

    let text = match std::fs::read_to_string(file) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {file}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let tree = match parse(&text) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("{file}: {e}");
            return ExitCode::FAILURE;
        }
    };

    let matched = match args[1].as_str() {
        "schemes" => {
            print_schemes();
            true
        }
        "table" => {
            print!("{}", render_figure2(&figure2_table(&tree)));
            true
        }
        "labels" => print_labels(&tree, &wanted),
        "query" => print_query(&tree, &wanted, query.as_deref().unwrap_or_default()),
        "flux-check" => return flux_check(&tree, query.as_deref().unwrap_or_default()),
        _ => unreachable!("validated above"),
    };
    if !matched {
        eprintln!("unknown scheme '{wanted}'; run `xupd {file} schemes` for the roster");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
