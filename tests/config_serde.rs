//! Configuration serialization round-trips.

use pim::dram::{AddressMapping, DramSpec, RowPolicy};
use pim::energy::{CacheEnergyModel, ComputeEnergyModel, DramEnergyModel, LinkEnergyModel};
use pim::stack::StackConfig;

#[test]
fn dram_spec_roundtrips_through_json() {
    for spec in [
        DramSpec::ddr3_1600(),
        DramSpec::ddr4_2400(),
        DramSpec::lpddr3_1600(),
        DramSpec::hmc_vault(),
    ] {
        let json = serde_json::to_string_pretty(&spec).expect("serialize");
        let back: DramSpec = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back, spec);
        assert!(json.contains("t_ck_ps"));
    }
}

#[test]
fn stack_and_energy_configs_roundtrip() {
    let stack = StackConfig::hmc2();
    let back: StackConfig =
        serde_json::from_str(&serde_json::to_string(&stack).expect("ser")).expect("de");
    assert_eq!(back, stack);

    let dram = DramEnergyModel::ddr3();
    let back: DramEnergyModel =
        serde_json::from_str(&serde_json::to_string(&dram).expect("ser")).expect("de");
    assert_eq!(back, dram);

    for json in [
        serde_json::to_string(&CacheEnergyModel::server()).expect("ser"),
        serde_json::to_string(&ComputeEnergyModel::default_28nm()).expect("ser"),
        serde_json::to_string(&LinkEnergyModel::hmc()).expect("ser"),
    ] {
        assert!(!json.is_empty());
    }
}

#[test]
fn enums_serialize_by_name() {
    let json = serde_json::to_string(&AddressMapping::RoBaRaCoCh).expect("ser");
    assert!(json.contains("RoBaRaCoCh"));
    let back: RowPolicy = serde_json::from_str("\"Closed\"").expect("de");
    assert_eq!(back, RowPolicy::Closed);
}

#[test]
fn edited_configs_deserialize() {
    // A user tweaking a JSON config (the point of the feature).
    let mut spec = serde_json::to_value(DramSpec::ddr3_1600()).expect("ser");
    spec["org"]["banks"] = serde_json::json!(16);
    let back: DramSpec = serde_json::from_value(spec).expect("de");
    assert_eq!(back.org.banks, 16);
    assert!(back.org.validate().is_ok());
}
