//! Network serving quickstart: a mapped FORMS model behind the TCP
//! front-end on an ephemeral loopback port, driven by the pipelined
//! client — requests batched by a work-conserving replica, a deliberately
//! impossible deadline surfacing as a wire status, and a telemetry
//! snapshot fetched over the same socket.
//!
//! ```text
//! cargo run --release --example net_serve
//! ```

use std::time::Duration;

use forms::arch::{MappedLayer, MappingConfig};
use forms::dnn::{Layer, Network, WeightLayerMut};
use forms::exec::Executor;
use forms::net::{serve_net, ClientConfig, NetClient, NetConfig};
use forms::rng::StdRng;
use forms::serve::ServeConfig;
use forms::tensor::Tensor;

const ROWS: usize = 64;
const COLS: usize = 10;

fn main() {
    // A small polarized linear model — every fragment single-signed, so
    // FORMS maps it without decomposition.
    let mut rng = StdRng::seed_from_u64(7);
    let mut net = Network::new(vec![Layer::flatten(), Layer::linear(&mut rng, ROWS, COLS)]);
    let matrix = Tensor::from_fn(&[ROWS, COLS], |i| 0.02 + (i % 11) as f32 * 0.03);
    net.for_each_weight_layer(&mut |wl| {
        if let WeightLayerMut::Linear(l) = wl {
            l.set_weight_matrix(&matrix);
        }
    });
    let exec = Executor::<MappedLayer>::map_network(&net, &MappingConfig::paper(8), 16)
        .expect("polarized model maps");

    // Batching is work-conserving: an idle replica runs whatever is
    // queued, up to `max_batch`, without waiting for stragglers. Pipelined
    // requests that arrive while both replicas are busy share a batch.
    let serve_config = ServeConfig {
        replicas: 2,
        queue_capacity: 32,
        max_batch: 4,
        default_deadline: None,
    };
    let net_config = NetConfig::default();

    // `serve_net` binds an ephemeral loopback port, runs the client
    // closure, then drains in-flight requests and tears the stack down —
    // no daemon left behind, which is why this example exits cleanly.
    let ((), telemetry) = serve_net(&exec, &[1, 8, 8], &serve_config, &net_config, |handle| {
        println!("serving on {}", handle.addr());
        let mut client =
            NetClient::connect(handle.addr(), ClientConfig::default()).expect("connect");

        // Pipeline a batch: send all requests before reading any reply.
        let inputs: Vec<Vec<f32>> = (0..8)
            .map(|k| (0..ROWS).map(|i| ((i + k) % 7) as f32 / 7.0).collect())
            .collect();
        for input in &inputs {
            client.send(input, None).expect("send");
        }
        for k in 0..inputs.len() {
            let reply = client.recv().expect("recv");
            let output = reply.outcome.expect("completed");
            println!(
                "reply {k}: {} logits, argmax {}, served in {:?}",
                output.len(),
                output
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.total_cmp(b.1))
                    .map(|(i, _)| i)
                    .unwrap(),
                reply.server_latency,
            );
        }

        // An impossible deadline comes back as a typed wire status on the
        // same live connection — not a dropped socket.
        let reply = client
            .call(&inputs[0], Some(Duration::from_nanos(1)))
            .expect("transport stays up");
        println!("1 ns deadline -> {}", reply.outcome.unwrap_err());

        // The telemetry frame round-trips the server's own counters —
        // including the per-stage breakdown of the request lifecycle.
        let snapshot = client.telemetry().expect("telemetry");
        println!(
            "telemetry over the wire: {} completed, {} expired, {} shed, p99 {:.2} ms",
            snapshot.completed,
            snapshot.expired,
            snapshot.shed,
            snapshot.latency.p99_ns() / 1e6,
        );
        for (stage, name) in snapshot
            .stages
            .in_order()
            .into_iter()
            .zip(forms::serve::STAGE_NAMES)
        {
            println!(
                "  {name:>10}: p50 {:.3} ms  p95 {:.3} ms  p99 {:.3} ms",
                stage.p50_ns() / 1e6,
                stage.p95_ns() / 1e6,
                stage.p99_ns() / 1e6,
            );
        }
    })
    .expect("loopback listener binds");

    println!(
        "final snapshot after shutdown: {} completed in {} batches / {} expired",
        telemetry.completed, telemetry.batches, telemetry.expired
    );
}
