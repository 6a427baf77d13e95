//! `cell_signoff`: the paper's own design flow, with no trace-plane code.
//!
//! For each of the 18 library gates in each of the three DPDN styles
//! (genuine, fully connected, enhanced): build the DPDN, assemble it into a
//! SABL cell and transient-characterize every input event (462 events in
//! all).  Then emit and replay a certificate for every verified circuit
//! under the built-in enhanced model.  The seed only orders the jobs.
//!
//! `BENCHMARK.json` does not list this workload: on the shared host the
//! benchmark was tuned on, its run-to-run spread reached 0.25-0.30 of the
//! median over ten runs (see `README.md`).  It stays runnable by name, so
//! the cell-flow layers can still be measured.

use dpl_cells::{characterize_events, CapacitanceModel, EventOptions, SablCell};
use dpl_core::{Dpdn, GateKind};
use dpl_crypto::{EnergyModel, LeakageModel};
use dpl_logic::{Expr, Namespace};
use dpl_verify::{check_certificate, emit_certificate, CertificateRequest, VerifiedCircuit};

use crate::ledger::{frame, Layer};
use crate::pass::Pass;
use crate::util::{mix, shuffle};

/// The three DPDN styles of the paper.
#[derive(Clone, Copy, Debug)]
enum Style {
    Genuine,
    FullyConnected,
    Enhanced,
}

struct Job {
    kind: GateKind,
    style: Style,
    expr: Expr,
    namespace: Namespace,
}

struct Inputs {
    jobs: Vec<Job>,
    circuits: Vec<VerifiedCircuit>,
    capacitance: CapacitanceModel,
    options: EventOptions,
}

/// The workload.
pub struct CellSignoff {
    seed: u64,
    /// How many library gates to characterize (all 18 at full size).
    gates: usize,
    /// How many verified circuits to certify (all 20 at full size).
    circuits: usize,
    /// Certification rounds over the circuits per pass: one round takes
    /// about 1% of the characterization, so it is repeated to weigh enough
    /// to measure steadily.
    rounds: usize,
    inputs: Option<Inputs>,
}

impl CellSignoff {
    /// A sign-off of the first `gates` library gates and `circuits`
    /// verified circuits, certified `rounds` times per pass.
    pub fn new(seed: u64, gates: usize, circuits: usize, rounds: usize) -> Self {
        CellSignoff {
            seed,
            gates,
            circuits,
            rounds,
            inputs: None,
        }
    }

    /// Parses the gate formulas into (cell, style) jobs and lists the
    /// circuits to certify, both in seeded order.
    pub fn setup(&mut self) -> Result<(), String> {
        let mut jobs = Vec::new();
        for &kind in GateKind::all().iter().take(self.gates) {
            for style in [Style::Genuine, Style::FullyConnected, Style::Enhanced] {
                let (expr, namespace) = kind.expression();
                jobs.push(Job {
                    kind,
                    style,
                    expr,
                    namespace,
                });
            }
        }
        shuffle(&mut jobs, mix(self.seed, 2));
        let mut circuits: Vec<VerifiedCircuit> = VerifiedCircuit::all()
            .into_iter()
            .take(self.circuits)
            .collect();
        shuffle(&mut circuits, mix(self.seed, 3));
        let capacitance = CapacitanceModel::default();
        let options = EventOptions {
            vdd: capacitance.vdd,
            ..EventOptions::default()
        };
        self.inputs = Some(Inputs {
            jobs,
            circuits,
            capacitance,
            options,
        });
        Ok(())
    }

    /// One sign-off: characterize every job, then certify every circuit
    /// `rounds` times.
    pub fn pass(&self, pass: &mut Pass) {
        let inputs = self.inputs.as_ref().expect("setup runs before any pass");

        let (outcomes, wall) = pass.stage(|| {
            inputs
                .jobs
                .iter()
                .map(|job| characterize(job, inputs))
                .collect::<Vec<_>>()
        });
        pass.produce.add(inputs.jobs.len() as f64, wall);
        for (job, outcome) in inputs.jobs.iter().zip(outcomes) {
            let what = format!("characterize {} ({:?})", job.kind.name(), job.style);
            let expected = 1usize << job.namespace.len();
            let outcome = outcome.and_then(|energies| check_energies(&energies, expected));
            if outcome.is_ok() {
                pass.events += expected as u64;
            }
            pass.check(&what, outcome);
        }

        let mut bdd_nodes = 0u64;
        for _ in 0..self.rounds {
            for &circuit in &inputs.circuits {
                let request = CertificateRequest {
                    circuit,
                    model: EnergyModel::builtin(LeakageModel::EnhancedSabl),
                    tolerance: CertificateRequest::STRICT_TOLERANCE,
                };
                let (text, emit_wall) = pass.stage(|| {
                    let _f = frame(Layer::VerifyEmit);
                    emit_certificate(&request).map(|c| c.to_text())
                });
                let outcome = text.map_err(|e| e.to_string()).and_then(|text| {
                    let (report, check_wall) = pass.stage(|| {
                        let _f = frame(Layer::VerifyCheck);
                        check_certificate(&text)
                    });
                    pass.check.add(1.0, emit_wall + check_wall);
                    report.map_err(|e| e.to_string())
                });
                let what = format!("certificate of {}", circuit.name());
                pass.check(
                    &what,
                    outcome.map(|report| bdd_nodes += report.bdd_nodes as u64),
                );
            }
        }
        pass.bdd_nodes = bdd_nodes / self.rounds.max(1) as u64;
    }
}

fn characterize(job: &Job, inputs: &Inputs) -> Result<Vec<f64>, String> {
    let dpdn = {
        let _f = frame(Layer::CoreDpdn);
        match job.style {
            Style::Genuine => Dpdn::genuine(&job.expr, &job.namespace),
            Style::FullyConnected => Dpdn::fully_connected(&job.expr, &job.namespace),
            Style::Enhanced => Dpdn::fully_connected_enhanced(&job.expr, &job.namespace),
        }
    }
    .map_err(|e| e.to_string())?;
    let cell = {
        let _f = frame(Layer::CellsAssemble);
        SablCell::new(&dpdn, &inputs.capacitance)
    };
    let _f = frame(Layer::SimCharacterize);
    characterize_events(cell.circuit(), cell.pins(), &inputs.options).map_err(|e| e.to_string())
}

/// A characterization must report one finite, positive energy per input
/// event.
fn check_energies(energies: &[f64], expected: usize) -> Result<(), String> {
    if energies.len() != expected {
        return Err(format!("{} energies for {expected} events", energies.len()));
    }
    match energies.iter().find(|e| !(e.is_finite() && **e > 0.0)) {
        Some(bad) => Err(format!("energy {bad} is not finite and positive")),
        None => Ok(()),
    }
}
