//! The corpus's generated manuscripts and its Figure 1 reconstruction are
//! valid against the standard hierarchy DTDs.

use corpus::dtds;
use goddag::Goddag;
use prevalid::DocEngines;

/// Every hierarchy of `g` carries a DTD and is valid against it.
fn assert_valid(g: &Goddag) {
    let engines = DocEngines::new(g);
    for h in g.hierarchy_ids() {
        let report = engines.report(g, h).expect("every hierarchy carries a DTD");
        assert!(
            report.is_valid(),
            "hierarchy {h} invalid: {:?}",
            &report.errors[..report.errors.len().min(5)]
        );
    }
}

#[test]
fn generated_manuscript_validates() {
    let ms = corpus::generate(&corpus::Params::sized(200));
    let mut g = ms.goddag;
    dtds::attach_standard(&mut g);
    assert_valid(&g);
}

#[test]
fn figure1_validates_against_dtds() {
    let mut g = corpus::figure1::goddag();
    // figure1 hierarchies: phys, ling, res, dmg — res/dmg both use the
    // editorial vocabulary.
    dtds::attach_standard(&mut g);
    for name in ["res", "dmg"] {
        let h = g.hierarchy_by_name(name).unwrap();
        g.set_dtd(h, dtds::edit()).unwrap();
    }
    assert_valid(&g);
}
