//! Infrastructure micro-benchmarks: the XML layer and the stylesheet
//! engine on a real generated datapath. These are the fixed per-run costs
//! of the flow (the paper's "feasible time over a complete test suite"
//! claim depends on them staying negligible next to simulation).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use fpgatest::workloads;
use nenya::{compile, CompileOptions};
use std::hint::black_box;

fn xml_pipeline(c: &mut Criterion) {
    let design = compile(
        "fdct1",
        &workloads::fdct_source(64),
        &CompileOptions {
            width: 32,
            ..CompileOptions::default()
        },
    )
    .expect("fdct compiles");
    let dp_doc = nenya::xml::emit_datapath(&design.configs[0].datapath);
    let dp_text = dp_doc.to_pretty_string();
    let hds_sheet = xform::stylesheets::datapath_to_hds();

    let mut group = c.benchmark_group("xml_pipeline");
    group.throughput(Throughput::Bytes(dp_text.len() as u64));

    group.bench_function("parse_datapath_xml", |b| {
        b.iter(|| black_box(xmlite::Document::parse(&dp_text).expect("parses")));
    });
    group.bench_function("emit_datapath_xml", |b| {
        b.iter(|| black_box(dp_doc.to_pretty_string()));
    });
    group.bench_function("stylesheet_to_hds", |b| {
        b.iter(|| black_box(xform::apply(hds_sheet, dp_doc.root()).expect("applies")));
    });
    group.bench_function("hds_parse", |b| {
        let hds = xform::apply(hds_sheet, dp_doc.root()).expect("applies");
        b.iter(|| black_box(eventsim::hds::parse(&hds).expect("parses")));
    });
    group.bench_function("compile_fdct_64px", |b| {
        let src = workloads::fdct_source(64);
        let options = CompileOptions {
            width: 32,
            ..CompileOptions::default()
        };
        b.iter(|| black_box(compile("fdct1", &src, &options).expect("compiles")));
    });

    group.finish();
}

criterion_group!(benches, xml_pipeline);
criterion_main!(benches);
