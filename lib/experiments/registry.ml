let all =
  [ Exp_f1.experiment; Exp_f2.experiment; Exp_f3.experiment;
    Exp_f4.experiment; Exp_f5.experiment; Exp_f6.experiment;
    Exp_f7.experiment; Exp_t1.experiment; Exp_t2.experiment;
    Exp_t3.experiment; Exp_t4.experiment; Exp_t5.experiment;
    Exp_b1.experiment ]

let find id =
  let id = String.lowercase_ascii id in
  List.find_opt
    (fun (e : Table.experiment) -> String.lowercase_ascii e.id = id)
    all
