//! The traced run must measure the same program as the untraced one.

use openflame_codec::{from_bytes, to_bytes};
use openflame_mapserver::protocol::{Envelope, Request, Response};
use openflame_mapserver::{MapServer, Principal};
use openflame_netsim::BackendKind;
use openflame_perfbench::workload::{drive, specs, Bench, Spec};

fn spec(name: &str) -> Spec {
    specs()
        .into_iter()
        .find(|s| s.name == name)
        .expect("workload exists")
}

fn bench(spec: &Spec, traced: bool) -> Bench {
    let bench = Bench::setup(spec, 11, traced).expect("set-up answers correctly");
    if let Some(tracer) = &bench.tracer {
        tracer.set_enabled(true);
    }
    bench
}

#[test]
fn traced_and_untraced_sim_runs_exchange_identical_messages() {
    let spec = spec("cold_errands_sim");
    let counts: Vec<_> = [false, true]
        .into_iter()
        .map(|traced| {
            let bench = bench(&spec, traced);
            let trace = bench.trace(5, 0.5);
            assert!(!trace.is_empty());
            let before = bench.dep.transport.stats();
            let (ctx, _) = drive(&bench, &trace);
            assert_eq!(ctx.wrong_count, 0, "{:?}", ctx.wrong);
            let after = bench.dep.transport.stats();
            if let Some(tracer) = &bench.tracer {
                let (spans, dropped) = tracer.spans();
                assert!(!spans.is_empty());
                assert_eq!(dropped, 0);
            }
            // Byte totals are not compared: on some traces two
            // deployments built in one process have differed by ~47
            // bytes in 2.5 MB, traced or not.
            (ctx.attempted, after.messages - before.messages)
        })
        .collect();
    assert!(counts[0].1 > 0);
    assert_eq!(counts[0], counts[1], "tracing changed the traffic");
}

#[test]
fn a_depth_one_policy_sheds_with_and_without_tracing() {
    let spec = Spec {
        backend: BackendKind::Tcp,
        ..spec("warm_city_tcp")
    };
    for traced in [false, true] {
        let bench = bench(&spec, traced);
        let transport = &bench.dep.transport;
        let server = bench.dep.venue_servers[0].endpoint();
        transport.set_overload_policy(server, Some(MapServer::overload_policy(1, 1_000)));
        let shed_before = transport.shed_requests();
        let from = transport.register("shed-probe", None);
        let hello = to_bytes(&Envelope {
            principal: Principal::anonymous(),
            request: Request::Hello,
        })
        .to_vec();
        // Pipelined submits pile up in the server's dispatch queue.
        let handles: Vec<_> = (0..64)
            .map(|_| transport.submit(from, server, hello.clone()))
            .collect();
        let busy = handles
            .into_iter()
            .map(|h| from_bytes::<Response>(&h.wait().expect("loopback call").payload))
            .filter(|r| matches!(r, Ok(Response::Busy { .. })))
            .count();
        assert!(busy > 0, "traced={traced}: depth 1 must shed");
        assert_eq!(
            transport.shed_requests() - shed_before,
            busy as u64,
            "traced={traced}: the shed counter reads through the decorator"
        );
        assert!(transport.dispatch_depth(server) >= 1);
        assert!(transport.worker_threads() > 0);
    }
}
