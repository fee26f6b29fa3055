//! Prints the engine's step/delivery wall-time split for the APSP workload
//! used by the `engine_parallel` bench.

use cliquesim::{Engine, Session};

fn main() {
    let n = 64;
    let wg = cc_graph::gen::gnp_weighted(n, 0.2, 20, 20180705);
    let mut s = Session::new(Engine::new(n));
    cc_paths::apsp_exact(&mut s, &wg).unwrap();
    let st = s.stats();
    println!(
        "rounds={} wall={:.1}ms step={:.1}ms delivery={:.1}ms peak_live={}B undelivered={}",
        st.rounds,
        st.timing.total_ns() as f64 / 1e6,
        st.timing.step_ns as f64 / 1e6,
        st.timing.delivery_ns as f64 / 1e6,
        st.peak_live_payload_bytes,
        st.undelivered_messages,
    );
}
