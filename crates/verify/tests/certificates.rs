//! End-to-end certificate tests: emit → serialize → replay round trips,
//! exhaustive single-byte corruption (every byte flip must fail closed),
//! and the linter's accept/reject contract over real synthesized netlists
//! and their mutations.

use dpl_verify::{
    check_certificate, emit_certificate, lint, lint_structure, CertificateRequest, EnergyFacts,
    LintError, NetlistRecord, VerifiedCircuit, VerifyError,
};

#[test]
fn certificates_round_trip_for_representative_circuits() {
    for (circuit, model) in [
        ("sbox", "enhanced"),
        ("buf", "fc"),
        ("oai22", "enhanced"),
        ("maj3", "fc"),
        ("present1", "enhanced"),
    ] {
        let request = CertificateRequest::parse(circuit, model).unwrap();
        let certificate = emit_certificate(&request).unwrap();
        let report = check_certificate(&certificate.to_text()).unwrap();
        assert_eq!(report.circuit, circuit);
        assert_eq!(report.model, model);
        assert!(report.outputs > 0);
        assert!(report.bdd_nodes > 0);
    }
}

#[test]
fn every_verified_circuit_certifies_and_replays() {
    for circuit in VerifiedCircuit::all() {
        let request = CertificateRequest::parse(&circuit.name(), "enhanced").unwrap();
        let certificate = emit_certificate(&request).unwrap();
        let report = check_certificate(&certificate.to_text()).unwrap();
        assert_eq!(report.circuit, circuit.name());
    }
}

/// The fail-closed guarantee, exhaustively: flipping any single byte of a
/// certificate makes `check` return an error (or makes the bytes invalid
/// UTF-8, which cannot even reach the parser).
#[test]
fn every_single_byte_flip_fails_the_check() {
    let request = CertificateRequest::parse("buf", "enhanced").unwrap();
    let text = emit_certificate(&request).unwrap().to_text();
    let bytes = text.as_bytes();
    for position in 0..bytes.len() {
        for mask in [0x01u8, 0x20, 0x80] {
            let mut corrupt = bytes.to_vec();
            corrupt[position] ^= mask;
            let outcome = match std::str::from_utf8(&corrupt) {
                Err(_) => continue, // not even decodable: fails closed trivially
                Ok(text) => check_certificate(text),
            };
            assert!(
                outcome.is_err(),
                "byte {position} ^ {mask:#04x} was not detected"
            );
        }
    }
}

#[test]
fn the_linter_accepts_every_synthesized_netlist() {
    for circuit in VerifiedCircuit::all() {
        let netlist = circuit.netlist().unwrap();
        let record = NetlistRecord::from_netlist(&netlist);
        let table = dpl_crypto::GateEnergyTable::builtin(
            dpl_crypto::LeakageModel::EnhancedSabl,
            &dpl_cells::CapacitanceModel::default(),
        )
        .unwrap();
        let facts = EnergyFacts::from_table(&table, &netlist, 1e-9);
        let findings = lint(&record, Some((&facts, Some(table.digest()))));
        assert!(
            findings.is_empty(),
            "{}: unexpected findings {findings:?}",
            circuit.name()
        );
    }
}

fn sbox_record() -> NetlistRecord {
    let netlist = VerifiedCircuit::Sbox.netlist().unwrap();
    NetlistRecord::from_netlist(&netlist)
}

#[test]
fn a_flipped_rail_pair_is_an_unbalanced_rails_finding() {
    let mut record = sbox_record();
    record.gates[3].rails.swap(0, 1);
    let findings = lint_structure(&record);
    assert!(
        findings
            .iter()
            .any(|f| matches!(f, LintError::UnbalancedRails { gate: 3, .. })),
        "{findings:?}"
    );
}

#[test]
fn a_swapped_gate_kind_is_an_unknown_cell_finding() {
    let mut record = sbox_record();
    // Claim a different library cell (keeping the rails complementary, so
    // only the cell/table correspondence can catch it).
    let gate = record
        .gates
        .iter_mut()
        .find(|g| g.cell == dpl_core::GateKind::And2.index() as u8)
        .expect("the S-box datapath instantiates AND2");
    gate.cell = dpl_core::GateKind::Or2.index() as u8;
    let findings = lint_structure(&record);
    assert!(
        findings
            .iter()
            .any(|f| matches!(f, LintError::UnknownCell { .. })),
        "{findings:?}"
    );
}

#[test]
fn a_dropped_gate_is_a_dangling_wire_finding() {
    let mut record = sbox_record();
    record.gates.remove(10);
    let findings = lint_structure(&record);
    assert!(
        findings
            .iter()
            .any(|f| matches!(f, LintError::DanglingWire { .. })),
        "{findings:?}"
    );
}

#[test]
fn a_mutated_netlist_also_fails_the_equivalence_replay() {
    // A mutation the structural linter cannot see (a clean DPL netlist
    // computing the wrong function) is still caught: the emitted
    // certificate's claims no longer replay.
    let request = CertificateRequest::parse("sbox", "enhanced").unwrap();
    let mut certificate = emit_certificate(&request).unwrap();
    certificate.record.gates[7].rail ^= 1;
    certificate.gate_digest = certificate.record.digest();
    let result = check_certificate(&certificate.to_text());
    assert!(
        matches!(
            result,
            Err(VerifyError::SignatureMismatch { .. } | VerifyError::SatCountMismatch { .. })
        ),
        "{result:?}"
    );
}

#[test]
fn a_leaky_model_cannot_be_certified() {
    let request = CertificateRequest::parse("and2", "genuine").unwrap();
    assert!(matches!(
        emit_certificate(&request),
        Err(VerifyError::Lint(_))
    ));
}

/// Rewrites one header line of a certificate and recomputes its checksum,
/// as a forger would: the checksum is unkeyed, so only the parser's own
/// checks stand between a forged count and the allocator.
fn forge_header(text: &str, keyword: &str, value: &str) -> String {
    let body = &text[..text.rfind("checksum ").expect("checksum line")];
    let mut forged = String::new();
    for line in body.lines() {
        if line.starts_with(&format!("{keyword} ")) {
            forged.push_str(&format!("{keyword} {value}\n"));
        } else {
            forged.push_str(line);
            forged.push('\n');
        }
    }
    assert_ne!(forged, body, "no `{keyword}` line to forge");
    let checksum = dpl_store::format::fnv1a64(forged.as_bytes());
    forged.push_str(&format!("checksum {checksum:016x}\n"));
    forged
}

/// Header counts near `u32::MAX`/`u64::MAX` with a valid checksum must be
/// rejected as malformed — never sized into an allocation (an abort) or a
/// capacity overflow (a panic) — both by the parser and by the
/// `dplcert-check` binary, which must exit 1.
#[test]
fn forged_header_counts_fail_closed() {
    let request = CertificateRequest::parse("sbox", "enhanced").unwrap();
    let text = emit_certificate(&request).unwrap().to_text();
    let dir = std::env::temp_dir().join(format!("dplcert_forged_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for (keyword, value) in [
        ("gates", "4294967295"),
        ("gates", "18446744073709551615"),
        ("outputs", "4294967295"),
    ] {
        let forged = forge_header(&text, keyword, value);
        assert!(
            matches!(
                dpl_verify::Certificate::parse(&forged),
                Err(VerifyError::MalformedCertificate { .. })
            ),
            "{keyword} {value}"
        );
        assert!(check_certificate(&forged).is_err(), "{keyword} {value}");
        let path = dir.join(format!("{keyword}-{value}.dplcert"));
        std::fs::write(&path, &forged).unwrap();
        let status = std::process::Command::new(env!("CARGO_BIN_EXE_dplcert-check"))
            .arg(&path)
            .stderr(std::process::Stdio::null())
            .status()
            .expect("run dplcert-check");
        assert_eq!(status.code(), Some(1), "{keyword} {value}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
