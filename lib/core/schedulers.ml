open Sched

let kinds () = List.map (fun f -> f.Sched_intf.kind) Disciplines.all

(* [initial_sessions] are *guaranteed* rates: a sum beyond the link rate
   cannot be honoured, and the GPS-exact disciplines would quietly run
   their fluid clock at slope < 1. Reject it here, before any session
   opens, so a bad spec cannot half-construct. *)
let check_admissible ~rate initial_sessions =
  let sum = Array.fold_left ( +. ) 0.0 initial_sessions in
  if sum > rate then
    invalid_arg
      (Printf.sprintf
         "Schedulers: initial session rates sum to %g, exceeding the link rate %g"
         sum rate)

let make ?observer ?(initial_sessions = [||]) ~rate factory =
  if rate <= 0.0 then invalid_arg "Schedulers.make: rate must be positive";
  check_admissible ~rate initial_sessions;
  let t = factory.Sched_intf.make ~rate in
  (match observer with None -> () | Some _ -> t.Sched_intf.set_observer observer);
  let handles =
    Array.map (fun r -> t.Sched_intf.open_session ~rate:r) initial_sessions
  in
  (t, handles)

let of_kind ?observer ?initial_sessions ~rate kind =
  match Disciplines.find kind with
  | Some f -> make ?observer ?initial_sessions ~rate f
  | None ->
    invalid_arg
      (Printf.sprintf "Schedulers.of_kind: unknown discipline %S (known: %s)" kind
         (String.concat ", " (kinds ())))

let server ~sim ?observer ?(initial_sessions = [||]) ?on_depart ?on_drop ~rate factory
    () =
  check_admissible ~rate initial_sessions;
  let policy, _ = make ?observer ~rate factory in
  let srv = Server.create ~sim ~rate ~policy ?on_depart ?on_drop () in
  let handles =
    Array.map (fun r -> Server.open_session srv ~rate:r ()) initial_sessions
  in
  (srv, handles)

let hier ~sim ~spec ?(factory = Disciplines.wf2q_plus) ?engine ?root_clock ?on_depart
    ?on_drop ?burst_max () =
  Hier_engine.create ~sim ~spec ~factory ?engine ?root_clock ?on_depart ?on_drop
    ?burst_max ()
