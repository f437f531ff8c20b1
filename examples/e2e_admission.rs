//! End-to-end admission control on a NoC (§V, Figs. 6–7).
//!
//! A Resource Manager admits a mixed-criticality set of applications
//! under the non-symmetric (importance-weighted) policy, reconfiguring
//! every source's injection rate on each mode change. The admitted rates
//! then configure each node's client, whose token bucket releases the
//! packets injected into the wormhole NoC simulator, and the end-to-end
//! latency guarantee of each flow across the NoC + DRAM chain is computed
//! with network calculus.
//!
//! Run with: `cargo run --example e2e_admission`

use autoplat_admission::app::{AppId, Application};
use autoplat_admission::client::{Client, TransmitDecision};
use autoplat_admission::e2e::{noc_path_curve, ResourceChain};
use autoplat_admission::modes::WeightedPolicy;
use autoplat_admission::rm::ResourceManager;
use autoplat_dram::service_curve::rate_latency_abstraction;
use autoplat_dram::timing::presets::ddr3_1600;
use autoplat_dram::wcd::WcdParams;
use autoplat_dram::ControllerConfig;
use autoplat_netcalc::arrival::gbps_bucket;
use autoplat_noc::{NocConfig, NocSim, NodeId, Packet};

fn main() {
    // The control layer: importance-weighted rate policy over a memory
    // path capacity of 0.05 requests/ns.
    let mut rm = ResourceManager::new(WeightedPolicy::new(0.05, 4.0, 0.001), 250.0);
    let apps = [
        Application::critical(AppId(0), 0, 20), // 0.020 req/ns guaranteed
        Application::best_effort(AppId(1), 3),
        Application::best_effort(AppId(2), 12),
        Application::best_effort(AppId(3), 15),
    ];
    let mut final_rates = Vec::new();
    for app in &apps {
        let out = rm.request_admission(*app);
        println!(
            "actMsg({}) -> {} | mode {} | rates: {}",
            app.id,
            if out.admitted { "admitted" } else { "REJECTED" },
            out.mode,
            out.rates
                .iter()
                .map(|(id, tb)| format!("{id}={:.4}", tb.rate()))
                .collect::<Vec<_>>()
                .join(", ")
        );
        final_rates = out.rates;
    }
    println!(
        "protocol: {} actMsg, {} stopMsg, {} confMsg; total reconfiguration overhead {}",
        rm.log().count("actMsg"),
        rm.log().count("stopMsg"),
        rm.log().count("confMsg"),
        rm.total_overhead()
    );

    // The data layer: client-regulated sources injecting on a 4x4 mesh.
    let mut noc = NocSim::new(NocConfig::new(4, 4));
    let dest = NodeId(10);
    let mut id = 0u64;
    for (app, contract) in &final_rates {
        let node = apps[app.0 as usize].node;
        // NoC regulation works in flits/cycle; scale requests/ns into
        // 4-flit packets per 1 ns cycle.
        let mut client = Client::new(*app, node);
        client.on_config(0, contract.scale(4.0));
        let mut now = 0u64;
        for _ in 0..40 {
            now = match client.request_transmit(now, 4.0) {
                TransmitDecision::ReleaseAt(at) => at,
                other => panic!("an admitted client must release, got {other:?}"),
            };
            noc.inject(Packet::new(id, NodeId(node), dest, 4), now);
            id += 1;
        }
    }
    assert!(
        noc.run_until_idle(10_000_000),
        "regulated traffic must drain"
    );
    println!(
        "\nNoC: {} packets delivered, latency mean {:.1} cycles, max {:.0} cycles",
        noc.completed().len(),
        noc.latency_cycles().mean(),
        noc.latency_cycles().max().unwrap_or(0.0)
    );

    // The guarantee: per-flow E2E bound across NoC + DRAM.
    let dram = rate_latency_abstraction(
        &WcdParams {
            timing: ddr3_1600(),
            config: ControllerConfig::paper(),
            writes: gbps_bucket(4.0, 8, 8),
            queue_position: 1,
        },
        32,
    )
    .expect("stable");
    let chain = ResourceChain::new()
        .stage("noc", noc_path_curve(6, 3, 1.0, 1.0))
        .stage("dram", dram);
    println!("\nend-to-end guarantees (NoC ⊗ DRAM):");
    for (app, tb) in &final_rates {
        match chain.delay_bound(tb) {
            Some(bound) => println!(
                "  {app}: rate {:.4} req/ns -> delay <= {bound:.1} ns",
                tb.rate()
            ),
            None => println!("  {app}: unstable at its assigned rate"),
        }
    }
}
