(* The multi-port device, bottom up:

   - Flow_table: pure and stable — the same flow always maps to the same
     link and leaf, in range;
   - Device: the lockstep differential. Random link counts, workloads
     and worker counts must produce exactly equal per-link departure
     traces, stamps, drop counts and hashes — -j1 vs -jK, and both vs
     the one-link replay [run_link_reference];
   - merged reports keep their shape (per-link rows + device totals). *)

module Q = QCheck

(* ---- Flow_table ---- *)

let prop_flow_table_pure_and_in_range =
  Q.Test.make ~count:500 ~name:"flow_table: pure and in range"
    (Q.make Q.Gen.(triple (int_range 1 64) (* links *) (int_range 1 8) (* leaves *)
                     (int_range 0 4096) (* flow *)))
    (fun (links, leaves, flow) ->
      let link = Shard.Flow_table.link_of_flow ~links flow in
      let leaf = Shard.Flow_table.leaf_of_flow ~leaves flow in
      link >= 0 && link < links && leaf >= 0 && leaf < leaves
      (* pure: asking twice is identical *)
      && Shard.Flow_table.link_of_flow ~links flow = link
      && Shard.Flow_table.leaf_of_flow ~leaves flow = leaf)

let test_flow_table_rejects_bad_geometry () =
  let invalid f = match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "invalid geometry must be rejected"
  in
  invalid (fun () -> Shard.Flow_table.link_of_flow ~links:0 3);
  invalid (fun () -> Shard.Flow_table.link_of_flow ~links:4 (-1));
  invalid (fun () -> Shard.Flow_table.leaf_of_flow ~leaves:0 3);
  invalid (fun () -> Shard.Flow_table.leaf_of_flow ~leaves:4 (-1))

(* ---- Device lockstep differential ---- *)

let device ~workers ~links ~rounds ~seed =
  let workload = { (Shard.Device.default_workload ~rounds) with seed } in
  Shard.Device.create ~workers ~workload ~record_traces:true ~links ()

let check_links_equal ~what (a : Shard.Device.link_result array)
    (b : Shard.Device.link_result array) =
  if Array.length a <> Array.length b then
    Q.Test.fail_reportf "%s: link counts differ" what;
  Array.iteri
    (fun i (x : Shard.Device.link_result) ->
      let y = b.(i) in
      if
        x.Shard.Device.departed_pkts <> y.Shard.Device.departed_pkts
        || x.Shard.Device.departed_bits <> y.Shard.Device.departed_bits
        || x.Shard.Device.drops <> y.Shard.Device.drops
        || x.Shard.Device.events <> y.Shard.Device.events
        || x.Shard.Device.final_time <> y.Shard.Device.final_time
        || x.Shard.Device.trace_hash <> y.Shard.Device.trace_hash
        || x.Shard.Device.trace <> y.Shard.Device.trace
      then
        Q.Test.fail_reportf "%s: link %d diverges (pkts %d/%d, hash %s/%s)"
          what i x.Shard.Device.departed_pkts y.Shard.Device.departed_pkts
          (Shard.Device.hash_hex x.Shard.Device.trace_hash)
          (Shard.Device.hash_hex y.Shard.Device.trace_hash))
    a;
  true

let lockstep_gen =
  Q.Gen.(
    let* links = int_range 1 12 in
    let* workers = int_range 2 4 in
    let* rounds = int_range 1 25 in
    let* seed = int64 in
    return (links, workers, rounds, seed))

let prop_device_lockstep_across_geometries =
  Q.Test.make ~count:12
    ~name:"device: -j1 trace == -jK trace == sequential oracle (random geometry)"
    (Q.make lockstep_gen) (fun (links, workers, rounds, seed) ->
      let r1 = Shard.Device.run (device ~workers:1 ~links ~rounds ~seed) in
      let rk = Shard.Device.run (device ~workers ~links ~rounds ~seed) in
      ignore (check_links_equal ~what:"-j1 vs -jK" r1.Shard.Device.per_link rk.Shard.Device.per_link);
      if r1.Shard.Device.device_hash <> rk.Shard.Device.device_hash then
        Q.Test.fail_reportf "device hash diverges across worker counts";
      (* every link against its replay on its own, in this domain *)
      let t = device ~workers ~links ~rounds ~seed in
      let oracle =
        Array.init links (fun link -> Shard.Device.run_link_reference t ~link)
      in
      check_links_equal ~what:"-jK vs oracle" rk.Shard.Device.per_link oracle)

let test_device_more_workers_than_links () =
  (* -j4 on 3 links: the pool runs one task per link and spawns no idle
     domain; the default workload at 60 rounds is the CI smoke's, whose
     device hash is pinned *)
  let run workers =
    Shard.Device.run
      (Shard.Device.create ~workers ~workload:(Shard.Device.default_workload ~rounds:60)
         ~links:3 ())
  in
  let r1 = run 1 and r4 = run 4 in
  Alcotest.(check string) "-j1 device hash pinned" "6432ffd1cb23147d"
    (Shard.Device.hash_hex r1.Shard.Device.device_hash);
  Alcotest.(check string) "-j4 = -j1"
    (Shard.Device.hash_hex r1.Shard.Device.device_hash)
    (Shard.Device.hash_hex r4.Shard.Device.device_hash);
  Alcotest.(check int) "pkts equal" r1.Shard.Device.total_pkts r4.Shard.Device.total_pkts

let test_device_overload_drops_deterministic () =
  let workload =
    { (Shard.Device.default_workload ~rounds:30) with
      Shard.Device.overload = 3.0; seed = 11L }
  in
  let run workers =
    Shard.Device.run (Shard.Device.create ~workers ~workload ~links:5 ())
  in
  let a = run 1 and b = run 3 in
  Alcotest.(check bool) "drops happen under 3x overload" true (a.Shard.Device.total_drops > 0);
  Alcotest.(check int) "drop count identical across -j" a.Shard.Device.total_drops
    b.Shard.Device.total_drops;
  Alcotest.(check bool) "hash identical" true
    (a.Shard.Device.device_hash = b.Shard.Device.device_hash)

let test_device_rejects_bad_config () =
  let invalid f = match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "invalid device config must be rejected"
  in
  invalid (fun () -> Shard.Device.create ~links:0 ());
  invalid (fun () -> Shard.Device.create ~workers:0 ~links:1 ());
  invalid (fun () -> Shard.Device.create ~workers:(Parallel.Pool.max_jobs + 1) ~links:1 ());
  invalid (fun () ->
      Shard.Device.create
        ~workload:{ (Shard.Device.default_workload ~rounds:1) with Shard.Device.overload = 0.0 }
        ~links:1 ());
  invalid (fun () ->
      Shard.Device.create
        ~workload:
          { (Shard.Device.default_workload ~rounds:1) with Shard.Device.overload = Float.nan }
        ~links:1 ())

(* ---- merged reports ---- *)

let test_reports_shape () =
  let workload = Shard.Device.default_workload ~rounds:10 in
  let t = Shard.Device.create ~workers:2 ~workload ~observe:true ~links:4 () in
  let r = Shard.Device.run t in
  let rep = Shard.Device.report r in
  let rows = Stats.Report.rows rep in
  Alcotest.(check int) "per-link rows + device total" 5 (List.length rows);
  (match List.rev rows with
  | total :: _ -> (
    Alcotest.(check string) "total row tag" "device" (List.hd total);
    match (List.nth total 1, r.Shard.Device.total_pkts) with
    | cell, pkts -> Alcotest.(check string) "total pkts" (string_of_int pkts) cell)
  | [] -> Alcotest.fail "empty report");
  (* merged sim report: per-sim occupancy plus aggregate totals *)
  let sim_rows = Stats.Report.rows (Shard.Device.sim_report r) in
  let key row = List.hd row in
  Alcotest.(check bool) "has totals" true
    (List.exists (fun row -> key row = "pending/total") sim_rows);
  Alcotest.(check bool) "has per-sim suffixed rows" true
    (List.exists (fun row -> key row = "pending#3") sim_rows);
  (* all links drained: device-wide pending is 0 *)
  (match List.find_opt (fun row -> key row = "pending/total") sim_rows with
  | Some [ _; v ] -> Alcotest.(check string) "drained" "0" v
  | _ -> Alcotest.fail "pending/total row malformed");
  (* merged metrics: per-link node rows + device total *)
  match Shard.Device.metrics_report r with
  | None -> Alcotest.fail "observe:true must yield metrics"
  | Some m ->
    let mrows = Stats.Report.rows m in
    Alcotest.(check string) "link column first" "link" (List.hd (Stats.Report.columns m));
    Alcotest.(check bool) "one row per node per link + total" true
      (List.length mrows > 4);
    (match List.rev mrows with
    | total :: _ -> Alcotest.(check string) "metrics total tag" "device" (List.hd total)
    | [] -> Alcotest.fail "empty metrics report")

let test_metrics_none_without_observe () =
  let t = Shard.Device.create ~workload:(Shard.Device.default_workload ~rounds:3) ~links:2 () in
  match Shard.Device.metrics_report (Shard.Device.run t) with
  | None -> ()
  | Some _ -> Alcotest.fail "metrics_report must be None without observe"

let qcheck rand t = QCheck_alcotest.to_alcotest ~rand t

let () =
  let rand = Random.State.make [| 0x5a4d |] in
  Alcotest.run "shard"
    [
      ( "flow_table",
        [
          qcheck rand prop_flow_table_pure_and_in_range;
          ("invalid geometry rejected", `Quick, test_flow_table_rejects_bad_geometry);
        ] );
      ( "device",
        [
          qcheck rand prop_device_lockstep_across_geometries;
          ("more workers than links", `Quick, test_device_more_workers_than_links);
          ("overload drops deterministic across -j", `Quick, test_device_overload_drops_deterministic);
          ("invalid config rejected", `Quick, test_device_rejects_bad_config);
        ] );
      ( "reports",
        [
          ("merged report shapes", `Quick, test_reports_shape);
          ("no metrics without observe", `Quick, test_metrics_none_without_observe);
        ] );
    ]
