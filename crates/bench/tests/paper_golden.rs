//! The paper's deterministic numbers regenerate exactly: Tables I–III, the
//! simulated columns of Tables IV and VI–VIII, the IOS makespans and the
//! simulated makespans of Figs. 12–14, compared byte for byte with
//! `paper_golden.txt`. A change that moves one of them — to the cost model,
//! the clustering, merging or the simulator — fails here; if the move is
//! intended, regenerate the file with
//! `cargo run --release -p ramiel-bench --bin tables -- golden > crates/bench/tests/paper_golden.txt`
//! and say why in the change.

#[test]
fn paper_tables_match_the_golden_file() {
    let golden = include_str!("paper_golden.txt");
    let now = ramiel_bench::paper_golden();
    for (i, (want, got)) in golden.lines().zip(now.lines()).enumerate() {
        assert_eq!(got, want, "line {} differs from paper_golden.txt", i + 1);
    }
    assert_eq!(
        now, golden,
        "paper_golden.txt and the tables differ in length"
    );
}
