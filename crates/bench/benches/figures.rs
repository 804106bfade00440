//! The simulated figures — 7, 10 (simulated half), 11, 14 and 15, the
//! heartbeat tuner and four ablations — rendered from one table in which
//! every distinct run is simulated once (`tpal_bench::figures`).

use tpal_bench::{banner, figures::Table, scale};

fn main() {
    banner(
        "Simulated figures",
        "one table, every distinct run simulated once",
    );
    for figure in Table::simulate(scale()).figures() {
        println!("\n{}", figure.text);
    }
}
