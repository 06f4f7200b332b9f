//! The stage probe: one design taken through the flow one public call at
//! a time, so each layer's unit cost is measured on the workload's own
//! designs. `run_design` and `TestFlow::run` make the same calls in one
//! piece; the probe times them apart.

use crate::trace::Tracer;
use fpgatest::flow::{prepare_design, Engine, FlowOptions, PreparedDesign};
use fpgatest::stimulus::Stimulus;
use nenya::CompileOptions;

/// One design to probe.
pub struct Design<'a> {
    pub name: &'a str,
    pub source: &'a str,
    pub compile: CompileOptions,
    pub stimuli: &'a [(String, Stimulus)],
}

/// Layer name of each engine's simulate spans.
pub fn sim_layer(engine: Engine) -> &'static str {
    match engine {
        Engine::Event => "sim.event",
        Engine::Cycle => "sim.cycle",
        Engine::Level => "sim.level",
        Engine::Batch => "sim.batch",
    }
}

/// Runs parse → compile → transform → golden, then simulates on each of
/// `engines` against the shared golden run, and (with `enumerate`) lists
/// the design's fault sites. Every call is a span under `parent`. Returns
/// the prepared design and the cycles each engine ran, in `engines` order.
///
/// # Errors
///
/// Any stage error, or a simulation that does not pass.
pub fn probe(
    tracer: &mut Tracer,
    parent: usize,
    request: Option<u64>,
    design: &Design<'_>,
    engines: &[Engine],
    enumerate: bool,
) -> Result<(PreparedDesign, Vec<u64>), String> {
    let fail = |stage: &str, e: &dyn std::fmt::Display| format!("{}: {stage}: {e}", design.name);
    let parent = Some(parent);
    let (_, program) = tracer.timed("nenya.parse", parent, request, || {
        nenya::lang::parse(design.source)
    });
    let program = program.map_err(|e| fail("parse", &e))?;
    let (_, compiled) = tracer.timed("nenya.compile", parent, request, || {
        nenya::compile_program(design.name, &program, &design.compile)
    });
    let compiled = compiled.map_err(|e| fail("compile", &e))?;
    let (_, prepared) = tracer.timed("flow.transform", parent, request, || {
        prepare_design(compiled)
    });
    let prepared = prepared.map_err(|e| fail("transform", &e))?;
    let mut options = FlowOptions {
        compile: design.compile.clone(),
        keep_artifacts: false,
        ..FlowOptions::default()
    };
    let (_, golden) = tracer.timed("flow.golden", parent, request, || {
        prepared.prepare_golden(design.stimuli, &options)
    });
    let golden = golden.map_err(|e| fail("golden", &e))?;
    let mut cycles = Vec::with_capacity(engines.len());
    for &engine in engines {
        options.engine = engine;
        let (id, report) = tracer.timed(sim_layer(engine), parent, request, || {
            prepared.run_with_golden(&golden, &options)
        });
        let report = report.map_err(|e| fail(sim_layer(engine), &e))?;
        if !report.passed {
            return Err(fail(sim_layer(engine), &"simulation disagrees with golden"));
        }
        let ran: u64 = report.runs.iter().map(|r| r.cycles).sum();
        tracer.attr(id, "cycles", ran);
        tracer.attr(
            id,
            "evals",
            report.runs.iter().map(|r| r.kernel.evals).sum(),
        );
        tracer.attr(id, "lanes", 1);
        cycles.push(ran);
    }
    if enumerate {
        let clean = cycles.iter().copied().max().unwrap_or(0);
        let (id, sites) = tracer.timed("faults.enumerate", parent, request, || {
            fpgatest::faults::enumerate_sites(prepared.design(), clean, 1)
        });
        tracer.attr(
            id,
            "sites",
            sites.map_err(|e| fail("enumerate", &e))?.len() as u64,
        );
    }
    Ok((prepared, cycles))
}
