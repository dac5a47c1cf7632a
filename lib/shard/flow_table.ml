(* Salts keep the link and leaf dimensions independent: a flow's link and
   leaf are separate mix64 draws off disjoint lattice offsets, so flows
   that collide on a link still spread over its leaves. *)

let link_salt = 0x51_7CC1_B727_220AL (* 2^64 / pi, truncated *)
let leaf_salt = 0x2545_F491_4F6C_DD1DL

(* OCaml ints are 63-bit: truncate and mask rather than shift, so the
   result is always in [0, max_int] *)
let positive h = Int64.to_int h land max_int

let hash ~salt i =
  positive
    (Engine.Rng.mix64
       (Int64.add salt (Int64.mul 0x9E3779B97F4A7C15L (Int64.of_int i))))

let link_of_flow ~links flow =
  if links < 1 then invalid_arg "Flow_table.link_of_flow: links must be >= 1";
  if flow < 0 then invalid_arg "Flow_table.link_of_flow: flow must be >= 0";
  hash ~salt:link_salt flow mod links

let leaf_of_flow ~leaves flow =
  if leaves < 1 then invalid_arg "Flow_table.leaf_of_flow: leaves must be >= 1";
  if flow < 0 then invalid_arg "Flow_table.leaf_of_flow: flow must be >= 0";
  hash ~salt:leaf_salt flow mod leaves

(* Open-on-first-arrival session table: external flow ids map onto policy
   sessions that may not exist yet; the first packet of a flow opens its
   session at ingress, and a close simply forgets the mapping (a later
   packet of the same flow id re-opens a fresh session — new handle
   generation, fresh stamps). *)
module Sessions = struct
  type t = {
    policy : Sched.Sched_intf.t;
    rate_of_flow : int -> float;
    table : (int, Sched.Session_handle.t) Hashtbl.t;
  }

  let create ?rate_of_flow ~policy ~default_rate () =
    if default_rate <= 0.0 then
      invalid_arg "Flow_table.Sessions.create: default_rate must be positive";
    let rate_of_flow =
      match rate_of_flow with Some f -> f | None -> fun _ -> default_rate
    in
    { policy; rate_of_flow; table = Hashtbl.create 1024 }

  let handle t ~flow =
    match Hashtbl.find_opt t.table flow with
    | Some h -> h
    | None ->
      let h = t.policy.Sched.Sched_intf.open_session ~rate:(t.rate_of_flow flow) in
      Hashtbl.add t.table flow h;
      h

  let session t ~flow = t.policy.Sched.Sched_intf.session_of_handle (handle t ~flow)

  let close t ~policy ~now ~flow =
    match Hashtbl.find_opt t.table flow with
    | None -> ()
    | Some h ->
      Hashtbl.remove t.table flow;
      t.policy.Sched.Sched_intf.close_session ~now ~policy h

  let known t ~flow = Hashtbl.mem t.table flow
  let live t = Hashtbl.length t.table
end
