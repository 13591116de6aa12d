//! Figure tables from a suite report, behind `suite --render`.
//!
//! [`render`] prints every figure and table of the paper's evaluation
//! (Figures 7a–16 and Table I, in paper order) from a full or quick
//! `suite` report, so every printed number comes from the artifact CI
//! byte-checks. It reads only the report's `security`, `watchdog`,
//! `attacks`, `devec` and `figures` sections and never simulates. Every
//! figure summary the suite writes into `figures` is printed from there;
//! render derives only per-row ratios and the two averages that have no
//! `figures` member (Figure 8's µop-cache hit rates and Figure 13's
//! conventional column). The report is outside input: a missing or
//! mistyped member is an `Err` naming its JSON path.

use crate::mean;
use csd_telemetry::Json;

type Res<T> = Result<T, String>;

/// The VPU policies of Figures 12–16, as keyed in the `devec` section.
const ALWAYS_ON: &str = "always-on";
const CONV: &str = "conventional";
const CSD: &str = "csd-devec";

/// `(label, key)` of the two legs of every attack in `attacks`.
const DEFENSES: [(&str, &str); 2] = [("no defense", "undefended"), ("stealth mode", "stealth")];

/// A report value together with its JSON path, for error messages.
struct At<'a> {
    v: &'a Json,
    path: String,
}

impl<'a> At<'a> {
    /// The member at a dotted `path` below this value (`""` is itself).
    fn at(&self, path: &str) -> Res<At<'a>> {
        let (mut v, mut full) = (self.v, self.path.clone());
        for key in path.split('.').filter(|k| !k.is_empty()) {
            full = if full.is_empty() {
                key.to_string()
            } else {
                format!("{full}.{key}")
            };
            v = v
                .get(key)
                .ok_or_else(|| format!("report has no member `{full}`"))?;
        }
        Ok(At { v, path: full })
    }

    fn typed<T>(&self, path: &str, what: &str, f: impl Fn(&'a Json) -> Option<T>) -> Res<T> {
        let a = self.at(path)?;
        f(a.v).ok_or_else(|| format!("`{}` is not {what}", a.path))
    }

    fn num(&self, path: &str) -> Res<f64> {
        self.typed(path, "a number", Json::as_f64)
    }

    fn int(&self, path: &str) -> Res<u64> {
        self.typed(path, "an unsigned integer", Json::as_u64)
    }

    fn text(&self, path: &str) -> Res<&'a str> {
        self.typed(path, "a string", Json::as_str)
    }

    /// The elements of the array at `path`.
    fn items(&self, path: &str) -> Res<Vec<At<'a>>> {
        let a = self.at(path)?;
        let arr = self.typed(path, "an array", Json::as_arr)?;
        let path = |i| format!("{}[{i}]", a.path);
        Ok(arr
            .iter()
            .enumerate()
            .map(|(i, v)| At { v, path: path(i) })
            .collect())
    }

    /// The `(name, value)` members of the object at `path`, in order.
    fn members(&self, path: &str) -> Res<Vec<(&'a str, At<'a>)>> {
        let a = self.at(path)?;
        let Json::Obj(members) = a.v else {
            return Err(format!("`{}` is not an object", a.path));
        };
        let path = |k| format!("{}.{k}", a.path);
        Ok(members
            .iter()
            .map(|(k, v)| (k.as_str(), At { v, path: path(k) }))
            .collect())
    }
}

/// Renders every figure table from a full or quick suite report.
///
/// # Errors
///
/// A `--filter` report (it has no figure sections) or any missing or
/// mistyped member, named by its JSON path.
pub fn render(report: &Json) -> Result<String, String> {
    if report.get("filter").is_some() {
        return Err("`filter`: a --filter report has no figure sections; \
                    render a full or quick suite report"
            .to_string());
    }
    let r = At {
        v: report,
        path: String::new(),
    };
    let mut out = Vec::new();
    attacks(&r, &mut out)?;
    security(&r, &mut out)?;
    watchdog(&r, &mut out)?;
    devec(&r, &mut out)?;
    table1(&r, &mut out)?;
    out.push(String::new());
    Ok(out.join("\n"))
}

fn pct(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

fn delta(x: f64) -> String {
    format!("{:+.1}%", 100.0 * x)
}

fn heading(out: &mut Vec<String>, title: &str) {
    if !out.is_empty() {
        out.push(String::new());
    }
    out.push(format!("== {title} =="));
}

/// Appends a figure's heading and a table with one row per item.
fn table<T>(
    out: &mut Vec<String>,
    title: &str,
    header: &[&str],
    items: &[T],
    cols: impl Fn(&T) -> Res<Vec<String>>,
) -> Res<()> {
    heading(out, title);
    out.push(line(header.iter().map(|h| h.to_string()).collect()));
    for item in items {
        out.push(line(cols(item)?));
    }
    Ok(())
}

/// One table row, every cell right-aligned.
fn line(cells: Vec<String>) -> String {
    cells.iter().map(|c| format!("{c:>14}")).collect()
}

/// The mean of `f` over `items`.
fn avg<T>(items: &[T], f: impl Fn(&T) -> Res<f64>) -> Res<f64> {
    Ok(mean(items.iter().map(f).collect::<Res<Vec<f64>>>()?))
}

/// Figures 7a and 7b: the side-channel attacks.
fn attacks(r: &At, out: &mut Vec<String>) -> Res<()> {
    heading(
        out,
        "Figure 7a: PRIME+PROBE on AES (T-table first-round attack)",
    );
    for (label, leg) in DEFENSES {
        let a = r.at(&format!("attacks.aes_prime_probe.{leg}"))?;
        out.push(format!(
            "[{label}] encryptions={}  recovered {}/16 positions = {} key bits",
            a.int("encryptions")?,
            a.int("correct_positions")?,
            a.int("bits_recovered")?
        ));
        let rates = a.items("pos0_touch_rates")?;
        let rates = rates
            .iter()
            .map(|x| Ok(format!(" {:.2}", x.num("")?)))
            .collect::<Res<String>>()?;
        out.push(format!("  pos0 touch-rate by candidate:{rates}"));
    }
    out.push("paper: 64/128 bits in ~64k attempts undefended; 0 bits with stealth".into());

    let methods = [
        ("flush+reload", "rsa_flush_reload"),
        ("prime+probe", "rsa_prime_probe"),
    ];
    let runs: Vec<_> = methods
        .iter()
        .flat_map(|&(m, key)| {
            DEFENSES.map(|(label, leg)| (m, label, format!("attacks.{key}.{leg}")))
        })
        .collect();
    table(
        out,
        "Figure 7b: FLUSH+RELOAD and PRIME+PROBE on RSA (square-and-multiply)",
        &["attack", "defense", "samples", "correct bits", "ts", "tm"],
        &runs,
        |(method, label, path)| {
            let a = r.at(path)?;
            Ok(vec![
                method.to_string(),
                label.to_string(),
                a.int("samples")?.to_string(),
                format!("{}/64", a.int("correct_bits")?),
                a.int("ts")?.to_string(),
                a.int("tm")?.to_string(),
            ])
        },
    )?;
    out.push(
        "paper: exponent fully visible undefended; perceived hit every probe with stealth".into(),
    );
    Ok(())
}

/// Figures 8–10: the `{noopt, opt}` × victim security grid.
fn security(r: &At, out: &mut Vec<String>) -> Res<()> {
    let opt = r.items("security.opt")?;
    let noopt = r.items("security.noopt")?;
    if opt.len() != noopt.len() {
        return Err("`security.opt` and `security.noopt` differ in length".into());
    }
    let rows: Vec<(&At, &At)> = opt.iter().zip(&noopt).collect();
    table(
        out,
        "Figure 8: execution time, stealth on / stealth off",
        &["bench", "noopt", "opt", "uop$ base", "uop$ stealth"],
        &rows,
        |(o, n)| {
            if n.text("name")? != o.text("name")? {
                return Err(format!("`{}.name` differs from `{}.name`", n.path, o.path));
            }
            Ok(vec![
                o.text("name")?.to_string(),
                format!("{:.3}", n.num("slowdown")?),
                format!("{:.3}", o.num("slowdown")?),
                pct(o.num("base.uop_cache_hit_rate")?),
                pct(o.num("stealth.uop_cache_hit_rate")?),
            ])
        },
    )?;
    out.push(format!(
        "average slowdown: noopt {}  opt {}",
        delta(r.num("figures.fig08.noopt.avg_slowdown")? - 1.0),
        delta(r.num("figures.fig08.opt.avg_slowdown")? - 1.0)
    ));
    out.push(format!(
        "µop cache hit rate (opt, fusion on): {} -> {} with CSD",
        pct(avg(&opt, |o| o.num("base.uop_cache_hit_rate"))?),
        pct(avg(&opt, |o| o.num("stealth.uop_cache_hit_rate"))?)
    ));
    out.push("paper: avg slowdown 5.6%, all <10%; µop cache hit rate 43% -> 42% (fusion)".into());

    table(
        out,
        "Figure 9: micro-op expansion under stealth mode (opt)",
        &["bench", "base uops", "csd uops", "expansion"],
        &opt,
        |o| {
            Ok(vec![
                o.text("name")?.to_string(),
                o.int("base.uops")?.to_string(),
                o.int("stealth.uops")?.to_string(),
                delta(o.num("uop_expansion")?),
            ])
        },
    )?;
    out.push(format!(
        "average expansion: {}",
        delta(r.num("figures.fig09.opt.avg_uop_expansion")?)
    ));
    out.push("paper: average expansion 8.0%".into());

    table(
        out,
        "Figure 10: D-cache MPKI, baseline vs stealth (opt)",
        &["bench", "base", "stealth"],
        &opt,
        |o| {
            Ok(vec![
                o.text("name")?.to_string(),
                format!("{:.2}", o.num("base.l1d_mpki")?),
                format!("{:.2}", o.num("stealth.l1d_mpki")?),
            ])
        },
    )?;
    out.push(format!(
        "average MPKI: base {:.2}  stealth {:.2}",
        r.num("figures.fig10.avg_base_l1d_mpki")?,
        r.num("figures.fig10.avg_stealth_l1d_mpki")?
    ));
    out.push("paper: MPKI stays about the same".into());
    Ok(())
}

/// Figure 11: each victim's slowdown per watchdog period.
fn watchdog(r: &At, out: &mut Vec<String>) -> Res<()> {
    let avgs = r.items("figures.fig11")?;
    let periods = avgs.iter().map(|p| Ok(p.int("period")?.to_string()));
    let mut header = vec!["bench".to_string()];
    header.extend(periods.collect::<Res<Vec<_>>>()?);
    let header: Vec<&str> = header.iter().map(String::as_str).collect();
    let slowdown = |x: &At, key: &str| Ok(format!("{:+.2}%", 100.0 * (x.num(key)? - 1.0)));
    table(
        out,
        "Figure 11: slowdown by watchdog period (opt)",
        &header,
        &r.items("watchdog")?,
        |v| {
            let legs = v.items("periods")?;
            if legs.len() != avgs.len() {
                return Err(format!(
                    "`{}.periods` does not match `figures.fig11`",
                    v.path
                ));
            }
            let mut cols = vec![v.text("name")?.to_string()];
            cols.extend(
                legs.iter()
                    .map(|leg| slowdown(leg, "slowdown"))
                    .collect::<Res<Vec<_>>>()?,
            );
            Ok(cols)
        },
    )?;
    let mut cols = vec!["average".to_string()];
    cols.extend(
        avgs.iter()
            .map(|p| slowdown(p, "avg_slowdown"))
            .collect::<Res<Vec<_>>>()?,
    );
    out.push(line(cols));
    out.push("paper: overhead decreases monotonically as the watchdog slows".into());
    Ok(())
}

/// Figures 12–16: workload × VPU policy.
fn devec(r: &At, out: &mut Vec<String>) -> Res<()> {
    let ws = r.members("devec")?;
    let name = |w: &(&str, At)| w.0.to_string();

    table(
        out,
        "Figure 12: energy normalized to conventional PG, vs CSD devectorization",
        &[
            "bench",
            "always-on",
            "conv total",
            "csd total",
            "csd vpu-dyn",
            "csd vpu-stat",
        ],
        &ws,
        |w| {
            let conv = w.1.num(&format!("{CONV}.total_pj"))?;
            let of = |p: &str| -> Res<String> { Ok(format!("{:.3}", w.1.num(p)? / conv)) };
            Ok(vec![
                name(w),
                of(&format!("{ALWAYS_ON}.total_pj"))?,
                "1.000".into(),
                of(&format!("{CSD}.total_pj"))?,
                of(&format!("{CSD}.vpu_dynamic_pj"))?,
                of(&format!("{CSD}.vpu_static_pj"))?,
            ])
        },
    )?;
    let fig12 = r.at("figures.fig12")?;
    out.push(format!(
        "average energy saving vs conventional: {} ({}/{} workloads positive)",
        pct(fig12.num("avg_saving_vs_conventional")?),
        fig12.int("workloads_with_positive_saving")?,
        ws.len()
    ));
    out.push("paper: average saving 12.9%".into());

    let cycles = |w: &(&str, At), p: &str| -> Res<f64> {
        Ok(w.1.num(&format!("{p}.stats.cycles"))?
            / w.1.num(&format!("{ALWAYS_ON}.stats.cycles"))?)
    };
    table(
        out,
        "Figure 13: execution time by VPU policy (normalized to always-on)",
        &["bench", "always-on", "conv", "csd"],
        &ws,
        |w| {
            Ok(vec![
                name(w),
                "1.000".into(),
                format!("{:.3}", cycles(w, CONV)?),
                format!("{:.3}", cycles(w, CSD)?),
            ])
        },
    )?;
    let fig13 = r.at("figures.fig13")?;
    out.push(format!(
        "average: conventional {:.3}, csd {:.3} (csd {} cycles vs conventional)",
        avg(&ws, |w| cycles(w, CONV))?,
        fig13.num("avg_csd_over_always_on")?,
        delta(fig13.num("avg_csd_over_conventional")? - 1.0)
    ));
    out.push("paper: CSD 3.4% faster than conventional gating".into());

    let uops = |w: &(&str, At), p: &str| w.1.int(&format!("{p}.stats.uops"));
    table(
        out,
        "Figure 14: dynamic micro-op counts by VPU policy",
        &["bench", "always-on", "conv", "csd"],
        &ws,
        |w| {
            Ok(vec![
                name(w),
                uops(w, ALWAYS_ON)?.to_string(),
                uops(w, CONV)?.to_string(),
                uops(w, CSD)?.to_string(),
            ])
        },
    )?;
    out.push(format!(
        "average csd µop expansion over always-on: {}",
        delta(r.num("figures.fig14.avg_uop_expansion_csd_over_always_on")?)
    ));
    out.push("paper: CSD's µop count grows only where devectorization is active".into());

    let gated = |w: &(&str, At), p: &str| w.1.num(&format!("{p}.gate.gated_fraction"));
    table(
        out,
        "Figure 15: VPU power-gated time fraction",
        &["bench", "conv", "csd"],
        &ws,
        |w| Ok(vec![name(w), pct(gated(w, CONV)?), pct(gated(w, CSD)?)]),
    )?;
    out.push(format!(
        "average CSD gated fraction: {}",
        pct(r.num("figures.fig15.avg_gated_fraction")?)
    ));
    out.push("paper: >70% on average; ~100% for astar/gcc/gobmk/sjeng".into());

    table(
        out,
        "Figure 16: vector-instruction execution breakdown under CSD",
        &["bench", "powered-on", "powering-on", "power-gated", "total"],
        &ws,
        |w| {
            let g = w.1.at(&format!("{CSD}.gate"))?;
            let ops = [
                g.int("vec_on")?,
                g.int("vec_powering_on")?,
                g.int("vec_gated")?,
            ];
            let total = ops.iter().fold(0u64, |a, &x| a.saturating_add(x));
            let mut cols = vec![name(w)];
            cols.extend(ops.map(|x| pct(x as f64 / total.max(1) as f64)));
            cols.push(total.to_string());
            Ok(cols)
        },
    )?;
    out.push(
        "paper: bwaves/milc devectorize while waking; omnetpp runs nearly all vector ops gated"
            .into(),
    );
    Ok(())
}

/// Table I: every member of `figures.table1`, nested caches flattened.
fn table1(r: &At, out: &mut Vec<String>) -> Res<()> {
    heading(out, "Table I: baseline core (Sandy-Bridge-style)");
    for (key, value) in r.members("figures.table1")? {
        match value.v {
            Json::Obj(_) => {
                for (sub, v) in value.members("")? {
                    out.push(format!("{:<32}{:>10}", format!("{key}.{sub}"), v.int("")?));
                }
            }
            _ => out.push(format!("{key:<32}{:>10}", value.int("")?)),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_report() -> Json {
        Json::parse(include_str!("../tests/golden/quick_suite.json")).unwrap()
    }

    #[test]
    fn every_figure_is_rendered_in_paper_order() {
        let text = render(&quick_report()).unwrap();
        let heads: Vec<&str> = text.lines().filter(|l| l.starts_with("== ")).collect();
        assert_eq!(heads.len(), 12, "{heads:?}");
        assert!(heads[0].contains("Figure 7a") && heads[11].contains("Table I"));
        assert_eq!(
            text.lines().filter(|l| l.starts_with("paper: ")).count(),
            11
        );
    }

    #[test]
    fn a_missing_member_is_an_error_naming_its_path() {
        let mut report = quick_report();
        if let Json::Obj(members) = &mut report {
            members.retain(|(k, _)| k != "watchdog");
        }
        assert_eq!(
            render(&report),
            Err("report has no member `watchdog`".to_string())
        );
        let err = render(&Json::parse(r#"{"attacks": {"aes_prime_probe": 1}}"#).unwrap());
        assert_eq!(
            err,
            Err("report has no member `attacks.aes_prime_probe.undefended`".to_string())
        );
    }

    #[test]
    fn mistyped_members_are_errors_not_panics() {
        for doc in [
            "null",
            "[]",
            r#"{"attacks": []}"#,
            r#"{"attacks": {"aes_prime_probe": {"undefended": {"encryptions": "x"}}}}"#,
        ] {
            assert!(render(&Json::parse(doc).unwrap()).is_err(), "{doc}");
        }
    }
}
