(* Crash recovery: the checkpoint codec, deterministic resume, the
   capture policy (one checkpoint after every handled message) and the
   restart-heals matrix — every token detector, crashed mid-protocol
   and rebuilt from its checkpoint, must still report the exact first
   cut of the fault-free oracle. *)

open Wcp_trace
open Wcp_clocks
open Wcp_core
open Wcp_sim
module G = QCheck2.Gen

(* ------------------------------------------------------------------ *)
(* Checkpoint generators                                               *)
(* ------------------------------------------------------------------ *)

let gen_int = G.int_range 0 9_999
let gen_iarr = G.array_size (G.int_range 0 5) gen_int
let gen_color = G.oneofl [ Messages.Red; Messages.Green ]
let gen_colors = G.array_size (G.int_range 0 5) gen_color

let gen_vc_snap =
  G.map2
    (fun state clock -> ({ state; clock } : Snapshot.vc))
    gen_int gen_iarr

let gen_dep =
  G.map2 (fun src clock -> ({ src; clock } : Dependence.t)) gen_int gen_int

let gen_dd_snap =
  G.map2
    (fun state deps -> ({ state; deps } : Snapshot.dd))
    gen_int
    (G.list_size (G.int_range 0 4) gen_dep)

(* One of every payload constructor, so the codec's message layer is
   exercised across its whole tag space. *)
let gen_base_msg =
  G.oneof
    [
      G.map (fun msg_id -> Messages.App_msg { msg_id }) gen_int;
      G.map3
        (fun v kind data ->
          Messages.App_data { tag = Messages.Vc_tag v; kind; data })
        gen_iarr gen_int gen_int;
      G.map3
        (fun src clock data ->
          Messages.App_data
            { tag = Messages.Dd_tag { src; clock }; kind = 1; data })
        gen_int gen_int gen_int;
      G.map (fun s -> Messages.Snap_vc s) gen_vc_snap;
      G.map2
        (fun state delta -> Messages.Snap_vc_delta { state; delta })
        gen_int gen_iarr;
      G.map (fun s -> Messages.Snap_dd s) gen_dd_snap;
      G.map2
        (fun state deps -> Messages.Snap_dd_packed { state; deps })
        gen_int gen_iarr;
      G.map3
        (fun state clock counts -> Messages.Snap_gcp { state; clock; counts })
        gen_int gen_iarr gen_iarr;
      G.pure Messages.App_done;
      G.map3
        (fun seq g color -> Messages.Vc_token { seq; g; color })
        gen_int gen_iarr gen_colors;
      G.map3
        (fun seq g (color, group) ->
          Messages.Group_token { seq; g; color; group })
        gen_int gen_iarr (G.pair gen_colors gen_int);
      G.map3
        (fun seq g (color, group) ->
          Messages.Group_return { seq; g; color; group })
        gen_int gen_iarr (G.pair gen_colors gen_int);
      G.map (fun seq -> Messages.Dd_token { seq }) gen_int;
      G.map2
        (fun clock next_red -> Messages.Poll { clock; next_red })
        gen_int (G.option gen_int);
      G.map (fun became_red -> Messages.Poll_reply { became_red }) G.bool;
      G.map (fun seq -> Messages.Wd_probe { seq }) gen_int;
      G.map3
        (fun seq received holding -> Messages.Wd_reply { seq; received; holding })
        gen_int G.bool G.bool;
    ]

let gen_msg =
  G.oneof
    [
      gen_base_msg;
      G.map2
        (fun seq payload -> Messages.Frame (Transport.Data { seq; payload }))
        gen_int gen_base_msg;
      G.map2
        (fun cum era -> Messages.Frame (Transport.Ack { cum; era }))
        gen_int gen_int;
      G.map2
        (fun expected era ->
          Messages.Frame (Transport.Reconnect { expected; era }))
        gen_int gen_int;
    ]

let gen_vc_mon =
  G.map
    (fun (v_queue, v_decoder, v_app_done, v_held, v_last, v_last_seq) ->
      {
        Checkpoint.v_queue;
        v_decoder;
        v_app_done;
        v_held;
        v_last;
        v_last_seq;
      })
    (G.tup6
       (G.list_size (G.int_range 0 4) gen_vc_snap)
       gen_iarr G.bool
       (G.option (G.pair gen_iarr gen_colors))
       (G.option gen_vc_snap) gen_int)

let gen_dd_mon =
  G.map2
    (fun (d_queue, d_app_done, d_color, d_g, d_next_red)
         (d_has_token, d_tentative, d_deps, d_polling, d_last_seq) ->
      {
        Checkpoint.d_queue;
        d_app_done;
        d_color;
        d_g;
        d_next_red;
        d_has_token;
        d_tentative;
        d_deps;
        d_polling;
        d_last_seq;
      })
    (G.tup5
       (G.list_size (G.int_range 0 4) gen_dd_snap)
       G.bool gen_color gen_int (G.option gen_int))
    (G.tup5 G.bool (G.option gen_int)
       (G.list_size (G.int_range 0 4) gen_dep)
       G.bool gen_int)

let gen_algo =
  G.oneof
    [
      G.map (fun m -> Checkpoint.Vc m) gen_vc_mon;
      G.map (fun m -> Checkpoint.Multi m) gen_vc_mon;
      G.map (fun m -> Checkpoint.Dd m) gen_dd_mon;
      G.map2
        (fun round frontier -> Checkpoint.Frontier { round; frontier })
        gen_int gen_iarr;
    ]

let gen_wd =
  G.map
    (fun (w_seq, w_dst, w_probes, w_bits, w_payload) ->
      { Checkpoint.w_seq; w_dst; w_probes; w_bits; w_payload })
    (G.tup5 gen_int gen_int gen_int gen_int gen_msg)

let gen_tx =
  G.map
    (fun (tx_dst, tx_next_seq, tx_base, tx_frames, tx_era) ->
      { Transport.tx_dst; tx_next_seq; tx_base; tx_frames; tx_era })
    (G.tup5 gen_int gen_int gen_int
       (G.list_size (G.int_range 0 3) (G.tup3 gen_int gen_msg gen_int))
       gen_int)

let gen_rx =
  G.map
    (fun (rx_src, rx_expected, rx_era) ->
      { Transport.rx_src; rx_expected; rx_era })
    (G.tup3 gen_int gen_int gen_int)

let gen_transport =
  G.map2
    (fun st_txs st_rxs -> { Transport.st_txs; st_rxs })
    (G.list_size (G.int_range 0 3) gen_tx)
    (G.list_size (G.int_range 0 3) gen_rx)

let gen_ckpt =
  G.map
    (fun (proc, algo, transport, watchdog) ->
      { Checkpoint.proc; algo; transport; watchdog })
    (G.tup4 gen_int gen_algo gen_transport (G.option gen_wd))

(* ------------------------------------------------------------------ *)
(* Codec                                                               *)
(* ------------------------------------------------------------------ *)

let codec_roundtrip =
  Helpers.qtest ~count:500 "decode inverts encode" gen_ckpt (fun c ->
      Checkpoint.equal c (Checkpoint.decode (Checkpoint.encode c)))

let rejects f =
  match f () with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "malformed checkpoint must be rejected"

let test_codec_rejects_malformed () =
  let c =
    {
      Checkpoint.proc = 3;
      algo = Checkpoint.Frontier { round = 2; frontier = [| 1; 2; 3 |] };
      transport = { Transport.st_txs = []; st_rxs = [] };
      watchdog = None;
    }
  in
  let s = Checkpoint.encode c in
  rejects (fun () -> Checkpoint.decode "");
  rejects (fun () -> Checkpoint.decode "bogus/9 1 2 3");
  rejects (fun () -> Checkpoint.decode (s ^ " 7"));
  (* Truncation: drop the last token of the stream. *)
  rejects (fun () ->
      Checkpoint.decode (String.sub s 0 (String.rindex s ' ')));
  rejects (fun () -> Checkpoint.decode (Checkpoint.version ^ " 0 4"))

(* ------------------------------------------------------------------ *)
(* Restart heals: detector matrix against the fault-free oracle        *)
(* ------------------------------------------------------------------ *)

(* Mid-protocol restart of the monitor of application process 0: its
   in-memory state is destroyed at [from_t] and rebuilt from its last
   checkpoint at [until_t]. *)
let restart_plan comp ~from_t ~until_t =
  let n = Computation.n comp in
  Fault.make
    ~windows:
      [ Fault.window ~kind:Fault.Restart ~proc:(n + 0) ~from_t ~until_t () ]
    ()

let algos =
  [
    ( "token-vc",
      fun ~fault ~seed comp spec ->
        (Token_vc.detect ~fault ~seed comp spec : Detection.result) );
    ( "token-dd",
      fun ~fault ~seed comp spec -> Token_dd.detect ~fault ~seed comp spec );
    ( "token-dd-par",
      fun ~fault ~seed comp spec ->
        Token_dd.detect ~fault ~parallel:true ~seed comp spec );
    ( "token-multi",
      fun ~fault ~seed comp spec ->
        Token_multi.detect ~fault ~groups:(min 4 (Spec.width spec)) ~seed comp
          spec );
  ]

let project name spec (r : Detection.result) =
  match Algo.of_string name with
  | Some a -> Algo.spec_outcome a spec r
  | None -> r.Detection.outcome

let test_restart_heals_matrix () =
  List.iter
    (fun (params, s) ->
      let comp = Helpers.build_comp params in
      let spec = Spec.all comp in
      let expected = Oracle.first_cut comp spec in
      let fault = restart_plan comp ~from_t:2.0 ~until_t:10.0 in
      let seed = Int64.of_int s in
      List.iter
        (fun (name, run) ->
          Alcotest.check Helpers.outcome
            (Format.asprintf "%s heals %a seed %d" name Computation.pp_summary
               comp s)
            expected
            (project name spec (run ~fault ~seed comp spec)))
        algos)
    [
      ((8, 6, 50, 50, 21), 1);
      ((16, 5, 50, 50, 22), 2);
      ((32, 4, 40, 50, 23), 3);
    ]

(* The restore must actually happen: checkpoint and restore counters
   are live, and the run still matches the oracle. *)
let test_restart_counters () =
  let comp = Helpers.build_comp (8, 6, 50, 50, 21) in
  let spec = Spec.all comp in
  let fault = restart_plan comp ~from_t:1.0 ~until_t:8.0 in
  let r = Token_vc.detect ~fault ~seed:1L comp spec in
  Alcotest.check Helpers.outcome "verdict preserved"
    (Oracle.first_cut comp spec) r.Detection.outcome;
  let st = r.Detection.stats in
  Alcotest.(check bool) "checkpoints taken" true (Stats.checkpoints st > 0);
  Alcotest.(check int) "one restore" 1 (Stats.restores st)

(* Recovery observables stay zero when nobody restarts. *)
let test_no_restart_zero_counters () =
  let comp = Helpers.build_comp (4, 5, 40, 60, 13) in
  let spec = Spec.all comp in
  let r =
    Token_vc.detect ~fault:(Fault.uniform ~seed:7L ~drop:0.2 ()) ~seed:7L comp
      spec
  in
  let st = r.Detection.stats in
  Alcotest.(check int) "no checkpoints" 0 (Stats.checkpoints st);
  Alcotest.(check int) "no restores" 0 (Stats.restores st);
  Alcotest.(check int) "no replay" 0 (Stats.replayed st)

(* Deterministic resume: equal seeds reproduce a restart run bit for
   bit, recovery counters included. *)
let test_restart_deterministic () =
  let comp = Helpers.build_comp (8, 6, 50, 50, 21) in
  let spec = Spec.all comp in
  let run () =
    let fault = restart_plan comp ~from_t:1.5 ~until_t:9.0 in
    let r = Token_dd.detect ~fault ~seed:11L comp spec in
    Format.asprintf "%a | sent=%d retx=%d replayed=%d ckpts=%d restores=%d t=%.9f"
      Detection.pp_outcome r.Detection.outcome
      (Stats.total_sent r.Detection.stats)
      (Stats.total_retransmits r.Detection.stats)
      (Stats.replayed r.Detection.stats)
      (Stats.checkpoints r.Detection.stats)
      (Stats.restores r.Detection.stats)
      r.Detection.sim_time
  in
  Alcotest.(check string) "bit-identical restart run" (run ()) (run ())

(* A restart at any instant heals: a checkpoint is taken after every
   handled message, so whatever point the crash lands on, the restore
   is an exact state transfer. Sweeps the window start on one
   computation for every token detector. *)
let test_restart_any_instant () =
  let comp = Helpers.build_comp (6, 5, 50, 50, 31) in
  let spec = Spec.all comp in
  let expected = Oracle.first_cut comp spec in
  for step = 1 to 32 do
    let from_t = 0.25 *. float_of_int step in
    let fault = restart_plan comp ~from_t ~until_t:(from_t +. 4.0) in
    List.iter
      (fun (name, run) ->
        Alcotest.check Helpers.outcome
          (Printf.sprintf "%s, restart at %.2f" name from_t)
          expected
          (project name spec (run ~fault ~seed:5L comp spec)))
      algos
  done

(* The capture policy of [Run_common.wire_monitors], on one monitor
   cell (engine id 1) whose state is the count of payloads it has
   handled, fed by process 0 over the recovery transport under one
   Restart window. Returns the final count, the count each restore
   handed back, and the run's stats. *)
let toy_recovery ~from_t ~until_t ~sends =
  let open Run_common in
  let win = Fault.window ~kind:Fault.Restart ~proc:1 ~from_t ~until_t () in
  let fault = Fault.make ~windows:[ win ] () in
  let engine = make_engine_n ~fault ~seed:1L ~n:1 () in
  let w = chaos_wiring engine ~fault:(Some fault) ~outcome:(ref None) in
  let net = Option.get w.net in
  net.set_handler 0 (fun _ ~src:_ _ -> ());
  let handled = ref 0 and restored = ref [] in
  let _hook =
    wire_monitors engine net ?recovery:w.recovery [| 1 |] ~id:Fun.id
      ~handler:(fun _ _ ~src:_ _ -> incr handled)
      ~capture:(fun ~proc:_ _ ->
        (Checkpoint.Frontier { round = !handled; frontier = [||] }, None))
      ~restore:(fun _ _ c ->
        match c.Checkpoint.algo with
        | Checkpoint.Frontier { round; _ } ->
            restored := round :: !restored;
            handled := round
        | _ -> Alcotest.fail "restored a foreign checkpoint")
  in
  List.iter
    (fun at ->
      Engine.schedule_initial engine ~proc:0 ~at (fun ctx ->
          net.send ctx ~bits:32 ~dst:1 (Messages.App_msg { msg_id = 0 })))
    sends;
  Engine.run engine;
  (!handled, List.rev !restored, Engine.stats engine)

(* Every handled message is followed by a checkpoint, so a crash after
   the k-th message restores exactly k handled messages. *)
let test_checkpoint_per_message () =
  let handled, restored, st =
    toy_recovery ~from_t:20.0 ~until_t:22.0 ~sends:[ 1.0; 2.0; 3.0; 4.0; 5.0 ]
  in
  Alcotest.(check int) "all 5 handled" 5 handled;
  Alcotest.(check int) "one checkpoint per handled message" 5
    (Stats.checkpoints st);
  Alcotest.(check (list int)) "restore hands back all 5" [ 5 ] restored;
  Alcotest.(check int) "one restore" 1 (Stats.restores st)

(* A window that opens before the monitor handled anything restores
   the seeded pre-run checkpoint; the transport then redelivers what
   the down monitor lost, each delivery checkpointed again. *)
let test_seed_checkpoint_restores () =
  let handled, restored, st =
    toy_recovery ~from_t:0.5 ~until_t:3.0 ~sends:[ 1.0; 2.0 ]
  in
  Alcotest.(check (list int)) "restore hands back the seed" [ 0 ] restored;
  Alcotest.(check int) "both messages handled once" 2 handled;
  Alcotest.(check int) "one checkpoint per delivery" 2 (Stats.checkpoints st)

(* ------------------------------------------------------------------ *)
(* Recovery soak                                                       *)
(* ------------------------------------------------------------------ *)

(* Seeded crash/restart loop: each random computation (n = 3-7) is
   run under one mid-run monitor restart per window start, with link
   loss on every other computation, by every token detector, and
   checked against the fault-free oracle. Bounded smoke by default;
   WCP_RECOVERY_SOAK=1 (the [make recovery-soak] target) runs the full
   sweep of 400 computations x 3 window starts x 4 detectors. *)
let soak_comps () =
  match Sys.getenv_opt "WCP_RECOVERY_SOAK" with
  | Some ("1" | "true" | "yes") -> 400
  | _ -> 2

let soak_window_starts = [ 0.5; 2.0; 4.0 ]

let test_recovery_soak () =
  for i = 1 to soak_comps () do
    let params =
      (3 + (i mod 5), 3 + (i mod 6), i * 17 mod 101, 30 + (i * 7 mod 60), 500 + i)
    in
    let comp = Helpers.build_comp params in
    let n = Computation.n comp in
    let spec = Spec.all comp in
    let expected = Oracle.first_cut comp spec in
    let drop = if i mod 2 = 0 then 0.1 else 0.0 in
    let seed = Int64.of_int (31 * i) in
    List.iter
      (fun from_t ->
        let until_t = from_t +. 4.0 +. float_of_int (i mod 5) in
        let windows =
          [
            Fault.window ~kind:Fault.Restart ~proc:(n + (i mod n)) ~from_t
              ~until_t ();
          ]
        in
        let fault =
          Fault.uniform ~seed:(Int64.of_int (97 * i)) ~drop ~windows ()
        in
        List.iter
          (fun (name, run) ->
            Alcotest.check Helpers.outcome
              (Format.asprintf "soak %d, restart at %.1f: %s %a" i from_t name
                 Computation.pp_summary comp)
              expected
              (project name spec (run ~fault ~seed comp spec)))
          algos)
      soak_window_starts
  done

let () =
  Alcotest.run "recovery"
    [
      ( "codec",
        [
          codec_roundtrip;
          Alcotest.test_case "malformed streams rejected" `Quick
            test_codec_rejects_malformed;
        ] );
      ( "restart-heals",
        [
          Alcotest.test_case "matrix: vc/dd/dd-par/multi, n in {8,16,32}" `Quick
            test_restart_heals_matrix;
          Alcotest.test_case "checkpoint/restore counters live" `Quick
            test_restart_counters;
          Alcotest.test_case "restart-free runs stay untouched" `Quick
            test_no_restart_zero_counters;
          Alcotest.test_case "deterministic resume" `Quick
            test_restart_deterministic;
          Alcotest.test_case "restart at any instant heals" `Quick
            test_restart_any_instant;
        ] );
      ( "capture",
        [
          Alcotest.test_case "one checkpoint per handled message" `Quick
            test_checkpoint_per_message;
          Alcotest.test_case "seed checkpoint restores an early window" `Quick
            test_seed_checkpoint_restores;
        ] );
      ( "soak",
        [ Alcotest.test_case "seeded crash/restart loop" `Quick test_recovery_soak ] );
    ]
