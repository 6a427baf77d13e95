//! Replayable security certificates.
//!
//! A certificate is a deterministic, line-oriented text record of everything
//! the verifier established about one circuit: the full gate list (the
//! untrusted evidence), its digest, the canonical BDD signature and model
//! count of every output, the lint verdicts, and the energy-model
//! commitment (table digest plus the per-cell event rows the constancy lint
//! ran against).  A trailing FNV-1a checksum covers every preceding byte.
//!
//! [`check_certificate`] replays a certificate from its bytes alone: it
//! re-hashes the file, re-lints the embedded gate list, rebuilds every
//! output BDD symbolically and compares signatures and model counts against
//! the claims.  The replay path deliberately never calls the synthesis or
//! cell-simulation code — a checker binary stays lean and independent of
//! the code that produced the claim, in the validator-as-separate-binary
//! style.  Floating-point energies are serialized as exact bit patterns, so
//! the replay is bit-reproducible.

use std::fmt::Write as _;

use dpl_cells::CapacitanceModel;
use dpl_crypto::{EnergyModel, GateEnergyTable};
use dpl_store::format::fnv1a64;

use crate::circuit::{prove_record, VerifiedCircuit};
use crate::equiv::{bdd_signature, netlist_bdds};
use crate::lint::{lint_energy, lint_structure, EnergyFacts};
use crate::record::{GateRecord, NetlistRecord};
use crate::VerifyError;

/// Certificate format version emitted and accepted by this crate.
pub const CERT_VERSION: u32 = 1;

/// The verdict line of a certificate; `emit` refuses to produce a
/// certificate for a netlist or model that does not earn it.
pub const CLEAN_VERDICT: &str =
    "cells=library rails=balanced topology=ordered wires=driven events=constant";

const MAGIC: &str = "DPLCERT";

/// What to certify: a circuit, an energy model, and the event-constancy
/// tolerance the certificate is granted.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CertificateRequest {
    /// The circuit under verification.
    pub circuit: VerifiedCircuit,
    /// The energy model whose table the certificate commits to.
    pub model: EnergyModel,
    /// Maximum admitted relative per-cell event-energy spread.  The
    /// built-in SABL tables are exactly constant, so the strict default
    /// works; transient-characterized tables carry residual simulator
    /// spread and must be granted an explicit tolerance (which the
    /// certificate records — the grant is part of the attestation).
    pub tolerance: f64,
}

impl CertificateRequest {
    /// Strictest default tolerance: admits only bit-identical event rows
    /// (up to floating-point noise).
    pub const STRICT_TOLERANCE: f64 = 1e-9;

    /// Parses a circuit name and an energy-model name.
    ///
    /// # Errors
    ///
    /// [`VerifyError::UnknownCircuit`] / [`VerifyError::UnknownModel`] for
    /// unrecognized names.
    pub fn parse(circuit: &str, model: &str) -> crate::Result<Self> {
        let circuit =
            VerifiedCircuit::parse(circuit).ok_or_else(|| VerifyError::UnknownCircuit {
                name: circuit.to_string(),
            })?;
        let model = EnergyModel::parse(model).ok_or_else(|| VerifyError::UnknownModel {
            name: model.to_string(),
        })?;
        Ok(CertificateRequest {
            circuit,
            model,
            tolerance: Self::STRICT_TOLERANCE,
        })
    }

    /// Grants a different event-constancy tolerance.
    #[must_use]
    pub fn with_tolerance(mut self, tolerance: f64) -> Self {
        self.tolerance = tolerance;
        self
    }
}

/// A fully-populated certificate, ready to serialize or already parsed
/// back from text.
#[derive(Debug, Clone, PartialEq)]
pub struct Certificate {
    /// Canonical circuit name.
    pub circuit: String,
    /// Canonical energy-model name.
    pub model: String,
    /// The embedded (untrusted, replayable) gate list.
    pub record: NetlistRecord,
    /// [`NetlistRecord::digest`] of the embedded gate list.
    pub gate_digest: u64,
    /// Canonical BDD signature of every output, in output order.
    pub signatures: Vec<u64>,
    /// Model count of every output over the primary inputs.
    pub sat_counts: Vec<u128>,
    /// [`GateEnergyTable::digest`] of the committed energy table.
    pub energy_digest: u64,
    /// Granted event-constancy tolerance.
    pub tolerance: f64,
    /// Per-cell event-energy rows the constancy lint ran against.
    pub events: Vec<(u8, Vec<f64>)>,
}

/// The replay summary returned by a successful [`check_certificate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckReport {
    /// Canonical circuit name.
    pub circuit: String,
    /// Canonical energy-model name.
    pub model: String,
    /// Primary input count.
    pub inputs: u32,
    /// Gates replayed.
    pub gates: usize,
    /// Outputs whose signatures and model counts were re-established.
    pub outputs: usize,
    /// Total decision nodes across the replayed output BDDs.
    pub bdd_nodes: usize,
}

/// [`emit_certificate`] with telemetry: synthesis + lint + proof +
/// certification run inside a `verify.emit_certificate` span; the proof and
/// certificate counts and the proof wall-time histogram are recorded into
/// `obs`.
///
/// # Errors
///
/// Exactly those of [`emit_certificate`].
pub fn emit_certificate_observed(
    request: &CertificateRequest,
    obs: &dpl_obs::Obs,
) -> crate::Result<Certificate> {
    use dpl_obs::names;
    let span = obs.span("verify.emit_certificate");
    let certificate = emit_certificate_with(request, Some(obs))?;
    obs.counter_add(names::VERIFY_PROOFS, 1);
    obs.counter_add(names::VERIFY_CERTIFICATES, 1);
    obs.record(names::VERIFY_PROOF_NS, span.finish());
    Ok(certificate)
}

/// [`check_certificate`] with telemetry: the replay runs inside a
/// `verify.check_certificate` span; the replay count and the peak replayed
/// BDD node count are recorded into `obs`.
///
/// # Errors
///
/// Exactly those of [`check_certificate`].
pub fn check_certificate_observed(text: &str, obs: &dpl_obs::Obs) -> crate::Result<CheckReport> {
    use dpl_obs::names;
    let span = obs.span("verify.check_certificate");
    let report = check_certificate(text)?;
    obs.counter_add(names::VERIFY_REPLAYS, 1);
    obs.gauge_max(names::VERIFY_BDD_NODE_PEAK, report.bdd_nodes as f64);
    span.finish();
    Ok(report)
}

/// Synthesizes, lints, proves, and certifies a circuit.
///
/// The certificate is only produced when the netlist passes the full
/// security lint under the requested model *and* every output is proven
/// equivalent to the specification oracle — an emitted certificate **is**
/// the attestation, so a leaky model (e.g. `genuine`) or a broken netlist
/// yields an error, not a certificate with failing verdicts.
///
/// # Errors
///
/// [`VerifyError::Lint`] when the security lint rejects the circuit or
/// model; equivalence and synthesis failures propagate.
pub fn emit_certificate(request: &CertificateRequest) -> crate::Result<Certificate> {
    emit_certificate_with(request, None)
}

/// [`emit_certificate`] with an optional telemetry context threaded into
/// the proof (the BDD build/signature phases and work counters).
fn emit_certificate_with(
    request: &CertificateRequest,
    obs: Option<&dpl_obs::Obs>,
) -> crate::Result<Certificate> {
    let netlist = request.circuit.netlist()?;
    let record = NetlistRecord::from_netlist(&netlist);
    let structural = lint_structure(&record);
    if !structural.is_empty() {
        return Err(VerifyError::Lint(structural));
    }
    let capacitance = CapacitanceModel::default();
    let table = GateEnergyTable::for_circuit(request.model, &capacitance, &netlist)
        .map_err(VerifyError::Crypto)?;
    let facts = EnergyFacts::from_table(&table, &netlist, request.tolerance);
    let energy = lint_energy(&record, &facts, None);
    if !energy.is_empty() {
        return Err(VerifyError::Lint(energy));
    }
    let report = prove_record(&request.circuit, &netlist, &record, obs)?;
    Ok(Certificate {
        circuit: request.circuit.name(),
        model: facts.model,
        gate_digest: record.digest(),
        record,
        signatures: report.signatures,
        sat_counts: report.sat_counts,
        energy_digest: facts.digest,
        tolerance: request.tolerance,
        events: facts.rows,
    })
}

impl Certificate {
    /// Serializes the certificate to its canonical text form, including the
    /// trailing checksum line.
    pub fn to_text(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "{MAGIC} {CERT_VERSION}");
        let _ = writeln!(s, "circuit {}", self.circuit);
        let _ = writeln!(s, "model {}", self.model);
        let _ = writeln!(s, "inputs {}", self.record.input_count);
        let _ = writeln!(s, "gates {}", self.record.gates.len());
        let _ = writeln!(s, "outputs {}", self.record.outputs.len());
        for gate in &self.record.gates {
            let _ = write!(
                s,
                "gate {} {} {:04x} {:04x} {}",
                gate.cell, gate.rail, gate.rails[0], gate.rails[1], gate.out
            );
            for &input in &gate.inputs {
                let _ = write!(s, " {input}");
            }
            s.push('\n');
        }
        for &output in &self.record.outputs {
            let _ = writeln!(s, "out {output}");
        }
        for (index, (signature, count)) in self.signatures.iter().zip(&self.sat_counts).enumerate()
        {
            let _ = writeln!(s, "output {index} {signature:016x} {count}");
        }
        for (cell, events) in &self.events {
            let _ = write!(s, "event {cell}");
            for energy in events {
                let _ = write!(s, " {:016x}", energy.to_bits());
            }
            s.push('\n');
        }
        let _ = writeln!(
            s,
            "energy {:016x} {:016x}",
            self.energy_digest,
            self.tolerance.to_bits()
        );
        let _ = writeln!(s, "verdict {CLEAN_VERDICT}");
        let _ = writeln!(s, "gate_digest {:016x}", self.gate_digest);
        let checksum = fnv1a64(s.as_bytes());
        let _ = writeln!(s, "checksum {checksum:016x}");
        s
    }

    /// Parses certificate text, verifying the trailing checksum first —
    /// any corrupted byte fails here before a single field is trusted.
    ///
    /// # Errors
    ///
    /// [`VerifyError::ChecksumMismatch`] on corruption,
    /// [`VerifyError::MalformedCertificate`] on format violations.
    pub fn parse(text: &str) -> crate::Result<Self> {
        let body = verify_checksum(text)?;
        let mut lines = LineCursor::new(body);
        let header = lines.expect_prefixed(MAGIC)?;
        if header.trim() != CERT_VERSION.to_string() {
            return Err(lines.malformed_at(format!(
                "unsupported certificate version '{}'",
                header.trim()
            )));
        }
        let circuit = lines.expect_prefixed("circuit")?.trim().to_string();
        let model = lines.expect_prefixed("model")?.trim().to_string();
        let input_count: u32 = lines.parse_field("inputs")?;
        let gate_count: usize = lines.parse_field("gates")?;
        let output_count: usize = lines.parse_field("outputs")?;
        // The counts are untrusted (the checksum is unkeyed): every gate
        // and output claims at least one line of its own, so a count the
        // remaining body cannot hold is malformed, and no reservation below
        // can exceed the input's size.
        let remaining = lines.remaining();
        let claimed = output_count
            .checked_mul(2)
            .and_then(|outputs| outputs.checked_add(gate_count));
        if claimed.is_none_or(|claimed| claimed > remaining) {
            return Err(lines.malformed_at(format!(
                "{gate_count} gate(s) and {output_count} output(s) declared, but only \
                 {remaining} line(s) follow"
            )));
        }

        let mut gates = Vec::with_capacity(gate_count);
        for _ in 0..gate_count {
            let rest = lines.expect_prefixed("gate")?;
            let mut fields = rest.split_whitespace();
            let cell = lines.parse_token(fields.next(), "cell index")?;
            let rail = lines.parse_token(fields.next(), "rail selector")?;
            let plain = lines.parse_hex16(fields.next(), "plain rail table")?;
            let complement = lines.parse_hex16(fields.next(), "complement rail table")?;
            let out = lines.parse_token(fields.next(), "output signal")?;
            let inputs: Vec<u32> = fields
                .map(|token| lines.parse_token(Some(token), "input signal"))
                .collect::<crate::Result<_>>()?;
            gates.push(GateRecord {
                cell,
                rail,
                rails: [plain, complement],
                inputs,
                out,
            });
        }
        let mut outputs = Vec::with_capacity(output_count);
        for _ in 0..output_count {
            outputs.push(lines.parse_field("out")?);
        }
        let mut signatures = Vec::with_capacity(output_count);
        let mut sat_counts = Vec::with_capacity(output_count);
        for index in 0..output_count {
            let rest = lines.expect_prefixed("output")?;
            let mut fields = rest.split_whitespace();
            let claimed: usize = lines.parse_token(fields.next(), "output index")?;
            if claimed != index {
                return Err(lines.malformed_at(format!(
                    "output claims out of order: expected {index}, found {claimed}"
                )));
            }
            signatures.push(lines.parse_hex64(fields.next(), "BDD signature")?);
            sat_counts.push(lines.parse_token(fields.next(), "model count")?);
        }
        let mut events = Vec::new();
        while lines.peek_is("event") {
            let rest = lines.expect_prefixed("event")?;
            let mut fields = rest.split_whitespace();
            let cell: u8 = lines.parse_token(fields.next(), "cell index")?;
            let row: Vec<f64> = fields
                .map(|token| {
                    lines
                        .parse_hex64(Some(token), "event energy")
                        .map(f64::from_bits)
                })
                .collect::<crate::Result<_>>()?;
            events.push((cell, row));
        }
        let rest = lines.expect_prefixed("energy")?;
        let mut fields = rest.split_whitespace();
        let energy_digest = lines.parse_hex64(fields.next(), "energy digest")?;
        let tolerance = f64::from_bits(lines.parse_hex64(fields.next(), "tolerance")?);
        let verdict = lines.expect_prefixed("verdict")?.trim().to_string();
        if verdict != CLEAN_VERDICT {
            return Err(lines.malformed_at(format!("unexpected verdict '{verdict}'")));
        }
        let digest_line = lines.expect_prefixed("gate_digest")?;
        let gate_digest = lines.parse_hex64(Some(digest_line.trim()), "gate digest")?;
        lines.expect_end()?;
        Ok(Certificate {
            circuit,
            model,
            record: NetlistRecord {
                input_count,
                gates,
                outputs,
            },
            gate_digest,
            signatures,
            sat_counts,
            energy_digest,
            tolerance,
            events,
        })
    }

    /// `true` when a live energy table's digest matches the certificate's
    /// commitment (the capture/attack layers use this to tie traces to the
    /// certified model).
    pub fn matches_energy_digest(&self, digest: u64) -> bool {
        self.energy_digest == digest
    }
}

/// Replays a certificate from its text alone: checksum, gate-list digest,
/// structural and energy lints, and the symbolic reconstruction of every
/// output function, whose canonical signature and model count must equal
/// the claims.  No synthesis or cell-simulation code runs.
///
/// # Errors
///
/// Fails closed: any corrupted byte, failing lint, or diverging replayed
/// claim yields an error.
pub fn check_certificate(text: &str) -> crate::Result<CheckReport> {
    let certificate = Certificate::parse(text)?;
    let actual = certificate.record.digest();
    if actual != certificate.gate_digest {
        return Err(VerifyError::GateDigestMismatch {
            expected: certificate.gate_digest,
            actual,
        });
    }
    let structural = lint_structure(&certificate.record);
    if !structural.is_empty() {
        return Err(VerifyError::Lint(structural));
    }
    let facts = EnergyFacts {
        model: certificate.model.clone(),
        digest: certificate.energy_digest,
        tolerance: certificate.tolerance,
        rows: certificate.events.clone(),
    };
    let energy = lint_energy(&certificate.record, &facts, None);
    if !energy.is_empty() {
        return Err(VerifyError::Lint(energy));
    }
    let mut bdd = dpl_logic::Bdd::new();
    let outputs = netlist_bdds(&mut bdd, &certificate.record)?;
    if outputs.len() != certificate.signatures.len() {
        return Err(VerifyError::Structure {
            message: format!(
                "certificate claims {} outputs, netlist has {}",
                certificate.signatures.len(),
                outputs.len()
            ),
        });
    }
    for (output, (&node, (&expected_sig, &expected_count))) in outputs
        .iter()
        .zip(certificate.signatures.iter().zip(&certificate.sat_counts))
        .enumerate()
    {
        let actual_sig = bdd_signature(&bdd, node);
        if actual_sig != expected_sig {
            return Err(VerifyError::SignatureMismatch {
                output,
                expected: expected_sig,
                actual: actual_sig,
            });
        }
        let actual_count = bdd.sat_count(node, certificate.record.input_count as usize);
        if actual_count != expected_count {
            return Err(VerifyError::SatCountMismatch {
                output,
                expected: expected_count,
                actual: actual_count,
            });
        }
    }
    Ok(CheckReport {
        circuit: certificate.circuit,
        model: certificate.model,
        inputs: certificate.record.input_count,
        gates: certificate.record.gates.len(),
        outputs: outputs.len(),
        bdd_nodes: outputs.iter().map(|&node| bdd.node_count(node)).sum(),
    })
}

/// Splits off and verifies the trailing checksum line, returning the body
/// it covers.
fn verify_checksum(text: &str) -> crate::Result<&str> {
    let position = text
        .rfind("checksum ")
        .ok_or(VerifyError::MalformedCertificate {
            line: 0,
            message: "missing checksum line".to_string(),
        })?;
    if position != 0 && text.as_bytes()[position - 1] != b'\n' {
        return Err(VerifyError::MalformedCertificate {
            line: 0,
            message: "checksum marker is not at a line start".to_string(),
        });
    }
    let body = &text[..position];
    // The trailing line must be byte-for-byte canonical — exactly
    // `checksum ` + 16 lowercase hex digits + `\n` — so that flips
    // `from_str_radix` would forgive (hex-digit case, whitespace mangling
    // of the final newline) still fail closed.
    let digits = text[position..]
        .strip_prefix("checksum ")
        .and_then(|rest| rest.strip_suffix('\n'))
        .filter(|hex| {
            hex.len() == 16
                && hex
                    .bytes()
                    .all(|b| b.is_ascii_hexdigit() && !b.is_ascii_uppercase())
        })
        .ok_or(VerifyError::MalformedCertificate {
            line: 0,
            message: "non-canonical checksum line".to_string(),
        })?;
    let expected =
        u64::from_str_radix(digits, 16).map_err(|_| VerifyError::MalformedCertificate {
            line: 0,
            message: format!("unreadable checksum '{digits}'"),
        })?;
    let actual = fnv1a64(body.as_bytes());
    if expected != actual {
        return Err(VerifyError::ChecksumMismatch { expected, actual });
    }
    Ok(body)
}

/// A strict sequential line reader with 1-based positions for error
/// reporting.
struct LineCursor<'a> {
    lines: std::iter::Peekable<std::str::Lines<'a>>,
    position: usize,
}

impl<'a> LineCursor<'a> {
    fn new(body: &'a str) -> Self {
        LineCursor {
            lines: body.lines().peekable(),
            position: 0,
        }
    }

    fn expect_prefixed(&mut self, keyword: &str) -> crate::Result<&'a str> {
        self.position += 1;
        let line = self
            .lines
            .next()
            .ok_or_else(|| self.malformed_at(format!("missing '{keyword}' line")))?;
        line.strip_prefix(keyword)
            .ok_or_else(|| self.malformed_at(format!("expected '{keyword}', found '{line}'")))
    }

    /// Lines not yet consumed.
    fn remaining(&self) -> usize {
        self.lines.clone().count()
    }

    fn peek_is(&mut self, keyword: &str) -> bool {
        self.lines
            .peek()
            .is_some_and(|line| line.starts_with(keyword))
    }

    fn expect_end(&mut self) -> crate::Result<()> {
        match self.lines.next() {
            None => Ok(()),
            Some(line) => Err(self.malformed_at(format!("trailing content '{line}'"))),
        }
    }

    fn malformed_at(&self, message: String) -> VerifyError {
        VerifyError::MalformedCertificate {
            line: self.position,
            message,
        }
    }

    fn parse_field<T: std::str::FromStr>(&mut self, keyword: &str) -> crate::Result<T> {
        let rest = self.expect_prefixed(keyword)?;
        rest.trim()
            .parse()
            .map_err(|_| self.malformed_at(format!("unreadable {keyword} value '{}'", rest.trim())))
    }

    fn parse_token<T: std::str::FromStr>(
        &self,
        token: Option<&str>,
        what: &str,
    ) -> crate::Result<T> {
        let token = token.ok_or_else(|| self.malformed_at(format!("missing {what}")))?;
        token
            .parse()
            .map_err(|_| self.malformed_at(format!("unreadable {what} '{token}'")))
    }

    fn parse_hex16(&self, token: Option<&str>, what: &str) -> crate::Result<u16> {
        let token = token.ok_or_else(|| self.malformed_at(format!("missing {what}")))?;
        u16::from_str_radix(token, 16)
            .map_err(|_| self.malformed_at(format!("unreadable {what} '{token}'")))
    }

    fn parse_hex64(&self, token: Option<&str>, what: &str) -> crate::Result<u64> {
        let token = token.ok_or_else(|| self.malformed_at(format!("missing {what}")))?;
        u64::from_str_radix(token, 16)
            .map_err(|_| self.malformed_at(format!("unreadable {what} '{token}'")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sbox_certificate() -> Certificate {
        let request = CertificateRequest::parse("sbox", "enhanced").unwrap();
        emit_certificate(&request).unwrap()
    }

    #[test]
    fn emit_parse_round_trip() {
        let certificate = sbox_certificate();
        let text = certificate.to_text();
        let parsed = Certificate::parse(&text).unwrap();
        assert_eq!(parsed, certificate);
    }

    #[test]
    fn check_replays_an_emitted_certificate() {
        let certificate = sbox_certificate();
        let report = check_certificate(&certificate.to_text()).unwrap();
        assert_eq!(report.circuit, "sbox");
        assert_eq!(report.model, "enhanced");
        assert_eq!(report.inputs, 8);
        assert_eq!(report.outputs, 4);
        assert!(report.bdd_nodes > 0);
    }

    #[test]
    fn emit_refuses_to_certify_a_leaky_model() {
        let request = CertificateRequest::parse("sbox", "genuine").unwrap();
        let result = emit_certificate(&request);
        assert!(
            matches!(&result, Err(VerifyError::Lint(errors)) if errors
                .iter()
                .all(|e| matches!(e, crate::LintError::NonConstantEvents { .. }))),
            "expected NonConstantEvents lint failures, got {result:?}"
        );
    }

    #[test]
    fn fully_connected_and_enhanced_models_certify() {
        for model in ["fc", "enhanced"] {
            let request = CertificateRequest::parse("oai22", model).unwrap();
            let certificate = emit_certificate(&request).unwrap();
            check_certificate(&certificate.to_text()).unwrap();
        }
    }

    #[test]
    fn a_tampered_claim_fails_even_with_a_fixed_checksum() {
        // An attacker who re-computes the checksum after tampering must
        // still be caught by the replay.
        let mut certificate = sbox_certificate();
        certificate.signatures[2] ^= 1;
        let text = certificate.to_text(); // fresh, valid checksum
        let result = check_certificate(&text);
        assert!(matches!(
            result,
            Err(VerifyError::SignatureMismatch { output: 2, .. })
        ));
    }

    #[test]
    fn a_tampered_sat_count_fails_the_replay() {
        let mut certificate = sbox_certificate();
        certificate.sat_counts[0] += 1;
        let result = check_certificate(&certificate.to_text());
        assert!(matches!(
            result,
            Err(VerifyError::SatCountMismatch { output: 0, .. })
        ));
    }

    #[test]
    fn a_tampered_gate_list_fails_the_digest() {
        let mut certificate = sbox_certificate();
        certificate.record.gates[0].rail ^= 1;
        let result = check_certificate(&certificate.to_text());
        assert!(matches!(
            result,
            Err(VerifyError::GateDigestMismatch { .. })
        ));
    }

    #[test]
    fn digest_commitment_is_checkable() {
        let certificate = sbox_certificate();
        assert!(certificate.matches_energy_digest(certificate.energy_digest));
        assert!(!certificate.matches_energy_digest(certificate.energy_digest ^ 1));
    }

    #[test]
    fn unknown_names_are_rejected() {
        assert!(matches!(
            CertificateRequest::parse("nope", "enhanced"),
            Err(VerifyError::UnknownCircuit { .. })
        ));
        assert!(matches!(
            CertificateRequest::parse("sbox", "nope"),
            Err(VerifyError::UnknownModel { .. })
        ));
    }

    #[test]
    fn truncated_certificates_fail_closed() {
        let text = sbox_certificate().to_text();
        // Drop the last line entirely.
        let truncated = &text[..text.rfind("checksum").unwrap()];
        assert!(Certificate::parse(truncated).is_err());
        // Drop the second half of the body (at a line boundary, so the
        // checksum line itself still parses) but keep the checksum line.
        let keep = text.rfind("checksum").unwrap();
        let cut = text[..keep / 2].rfind('\n').unwrap() + 1;
        let mangled = format!("{}{}", &text[..cut], &text[keep..]);
        assert!(matches!(
            Certificate::parse(&mangled),
            Err(VerifyError::ChecksumMismatch { .. })
        ));
    }
}
